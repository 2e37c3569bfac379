package faults

import (
	"bytes"
	"testing"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

// TestFaultHashOrderIndependentUnderParallelSweep pins the package's
// determinism contract against the level-synchronous parallel sweep: fault
// draws are keyed hashes of message identity, never of transmission order,
// so a fully armed environment (burst fades, duplication, delay, churn)
// must assign bit-identical fates — same root views, same counters, same
// drop totals — whatever the sweep's worker count. This is the property
// that lets the parallel compute phase run ahead of the ordered commit
// phase without consulting the fault layer.
func TestFaultHashOrderIndependentUnderParallelSweep(t *testing.T) {
	run := func(workers int) ([]byte, sim.Snapshot) {
		p := topo.Rooms(10, 8, 12, 31)
		opts := sim.DefaultOptions()
		opts.Parallel = workers
		net, err := sim.New(p, 25, opts)
		if err != nil {
			t.Fatalf("build network: %v", err)
		}
		sensors := p.SensorNodes()
		err = Arm(net, Config{
			Seed:      9,
			Burst:     &BurstSpec{PGoodBad: 0.15, PBadGood: 0.4, LossBad: 0.6},
			Duplicate: 0.05,
			Delay:     0.05,
			Churn: []ChurnEvent{
				{Node: sensors[3], Epoch: 5, Down: true},
				{Node: sensors[11], Epoch: 8, Down: true},
				{Node: sensors[11], Epoch: 14, Down: false},
			},
		})
		if err != nil {
			t.Fatalf("arm: %v", err)
		}
		src := trace.NewRoomActivity(9, p.Groups, 10)
		var roots []byte
		for e := model.Epoch(0); e < 20; e++ {
			// Sensing precedes the epoch's first transmission, so it sees
			// the previous epoch's churn; the sweep fires epoch e's events
			// before its first commit.
			readings := make(map[model.NodeID]model.Reading)
			for _, id := range net.AliveSensors() {
				readings[id] = model.Reading{Node: id, Group: p.Groups[id], Epoch: e, Value: src.Sample(id, e)}
			}
			roots = model.AppendView(roots, net.Sweep(e, radio.KindData, readings, nil))
		}
		return roots, net.Snap()
	}
	wantRoots, wantSnap := run(1)
	if wantSnap.Drops == 0 {
		t.Fatal("fault environment never dropped a frame — the test exercises nothing")
	}
	for _, workers := range []int{2, 6} {
		roots, snap := run(workers)
		if !bytes.Equal(roots, wantRoots) {
			t.Errorf("workers=%d: root views diverge from sequential under faults", workers)
		}
		if snap != wantSnap {
			t.Errorf("workers=%d: accounting %+v, want %+v", workers, snap, wantSnap)
		}
	}
}
