package engine_test

import (
	"bytes"
	"sync"
	"testing"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
)

// denseScale1000 is scale-1000 at three times the radio radius: levels of
// 226, 596 and 178 nodes, wide enough that a sweep at a worker bound of 4
// shares them with spare workers.
func denseScale1000(t *testing.T) (*sim.Network, map[model.NodeID]model.Reading) {
	t.Helper()
	scen, err := config.ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	scen.Radius *= 3
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	net.SetParallel(4)
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	return net, engine.PresampleEpoch(net, src, 0)
}

// thinning is a prune that keeps the groups outside residue class i mod 7:
// each concurrent sweep ships different views.
func thinning(i int) engine.PruneFunc {
	return func(_ model.NodeID, v *model.View) *model.View {
		out := model.AcquireView()
		v.ForEach(func(p model.Partial) {
			if int(p.Group)%7 != i {
				out.AddPartial(p)
			}
		})
		return out
	}
}

// TestLiveConcurrentSweepsAndFloods keeps six sweeps and a flood in flight
// on one network, round after round. On lossless links sweeps do not
// interact, so every sweep must return the view the same sweep returns
// alone, the views handed out earlier must survive the later sweeps that
// recycle their frames, and the radio counters must add up to the
// one-at-a-time run's.
func TestLiveConcurrentSweepsAndFloods(t *testing.T) {
	const sweepers, rounds = 6, 5
	beacon := []byte{1, 2, 3}
	payload := func(model.NodeID) []byte { return beacon }

	ref, readings := denseScale1000(t)
	var want [sweepers][]byte
	for r := 0; r < rounds; r++ {
		for i := range want {
			enc := model.AppendView(nil, ref.Sweep(0, radio.KindData, readings, thinning(i)))
			if r > 0 && !bytes.Equal(enc, want[i]) {
				t.Fatalf("reference sweep %d is not repeatable", i)
			}
			want[i] = enc
		}
		ref.BroadcastDown(radio.KindBeacon, 0, payload)
	}

	net, _ := denseScale1000(t)
	var views [sweepers][rounds]*model.View
	var wg sync.WaitGroup
	for i := 0; i < sweepers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				views[i][r] = net.Sweep(0, radio.KindData, readings, thinning(i))
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if reached := net.BroadcastDown(radio.KindBeacon, 0, payload); len(reached) != len(readings)+1 {
				t.Errorf("flood %d reached %d nodes, want %d", r, len(reached), len(readings)+1)
			}
		}
	}()
	wg.Wait()

	for i := range views {
		for r, v := range views[i] {
			if got := model.AppendView(nil, v); !bytes.Equal(got, want[i]) {
				t.Errorf("sweep %d round %d: sink view differs from the sequential run's", i, r)
			}
		}
	}
	got, seq := net.Snap(), ref.Snap()
	got.EnergyUJ, seq.EnergyUJ = 0, 0 // per-node float sums depend on the interleaving
	if got != seq {
		t.Errorf("counters: concurrent %+v, sequential %+v", got, seq)
	}
}

// TestChurnFiresAtFirstCommitNotAtSensing pins where an armed churn event
// takes effect, on the sequential and the level-synchronous sweep: an
// event at epoch e is not yet in force when e is sensed
// (AliveSensors still lists the node, so its reading is taken) but is by
// e's first sweep commit — the node is the sweep's first to commit, and its
// reading never reaches the sink.
func TestChurnFiresAtFirstCommitNotAtSensing(t *testing.T) {
	const downAt = 3
	for _, sc := range []struct {
		name     string
		parallel int
	}{{"sim-sequential", 1}, {"sim-levels", 2}} {
		t.Run(sc.name, func(t *testing.T) {
			scen := config.Figure1Scenario()
			net, err := scen.Network()
			if err != nil {
				t.Fatal(err)
			}
			net.SetParallel(sc.parallel)
			src, err := scen.Source()
			if err != nil {
				t.Fatal(err)
			}
			idx := net.Tree.LevelIndex()
			first := idx.Levels[len(idx.Levels)-1][0] // the sweep's first commit
			group := net.Placement.Groups[first]
			tp := net
			tp.SetChurn([]sim.ChurnEvent{{Node: first, Epoch: downAt, Down: true}})
			for e := model.Epoch(0); e <= downAt; e++ {
				sensed := false
				for _, id := range tp.AliveSensors() {
					sensed = sensed || id == first
				}
				if !sensed {
					t.Fatalf("epoch %d: node %d missing from AliveSensors before its epoch's first transmission", e, first)
				}
				readings := engine.SenseEpoch(tp, src, e)
				members := 0
				for _, r := range readings {
					if r.Group == group {
						members++
					}
				}
				want := members
				if e == downAt {
					want-- // struck down before it could transmit
				}
				p, _ := tp.Sweep(e, radio.KindData, readings, nil).Get(group)
				if int(p.Count) != want {
					t.Fatalf("epoch %d: group %d reached the sink with %d readings, want %d", e, group, p.Count, want)
				}
			}
			if tp.Alive(first) {
				t.Errorf("node %d alive after its epoch-%d churn event", first, downAt)
			}
		})
	}
}
