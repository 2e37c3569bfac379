package engine_test

import (
	"runtime"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
)

// pipelineRun drives one MINT query over the Figure-3 deployment with a
// tight energy budget (nodes die mid-run, so the deferred idle/sense
// accounting of the pipelined path is exercised against real deaths) and
// returns the outcome stream plus the network's accounting fingerprint.
// A deployment pipelines iff its network's Parallel bound is above one.
func pipelineRun(t *testing.T, parallel, epochs int) ([]engine.Outcome, sim.Snapshot, int) {
	t.Helper()
	scen := config.Figure3Scenario()
	scen.Budget = 0.004
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	net.SetParallel(parallel)
	tp := net
	sched := engine.NewScheduler(engine.NewDeployment("figure3", tp, src))
	defer sched.Close()
	op := mint.New()
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	if err := op.Attach(tp, q); err != nil {
		t.Fatal(err)
	}
	sq := sched.Add([]engine.EpochRunner{op}, nil, nil)
	outs := make([]engine.Outcome, 0, epochs)
	for i := 0; i < epochs; i++ {
		out, err := sched.Step(sq)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		outs = append(outs, out)
	}
	dead := 0
	for _, id := range net.Placement.SensorNodes() {
		if !net.Alive(id) {
			dead++
		}
	}
	return outs, net.Snap(), dead
}

// TestSchedulerPipeliningByteIdentity pins the cross-epoch pipeline's
// contract: presampling epoch e+1 on a background goroutine while epoch e
// merges (a round at a Parallel bound above one) must not move a single
// byte of the result — answers, counters and the energy ledger all match
// the synchronous run at Parallel 1, because sampling is
// pure and the idle/sense charges are deferred to the epoch's consumption
// (including dropping readings of nodes the idle charge kills, see
// engine.CommitSenseEpoch).
func TestSchedulerPipeliningByteIdentity(t *testing.T) {
	const epochs = 30
	outs, snap, dead := pipelineRun(t, 1, epochs)
	pOuts, pSnap, pDead := pipelineRun(t, 4, epochs)
	for e := range outs {
		if outs[e].Epoch != pOuts[e].Epoch {
			t.Fatalf("step %d: epoch %d vs %d", e, outs[e].Epoch, pOuts[e].Epoch)
		}
		if !model.EqualAnswers(outs[e].Answers, pOuts[e].Answers) {
			t.Fatalf("epoch %d: answers %v (sync) vs %v (pipelined)", e, outs[e].Answers, pOuts[e].Answers)
		}
		if (outs[e].Err == nil) != (pOuts[e].Err == nil) {
			t.Fatalf("epoch %d: errors diverged: %v vs %v", e, outs[e].Err, pOuts[e].Err)
		}
	}
	// Snapshot includes the ledger total, so this is the exact-accounting
	// comparison (energy is a float sum in deterministic node order).
	if snap != pSnap {
		t.Fatalf("accounting diverged:\nsync      %+v\npipelined %+v", snap, pSnap)
	}
	if dead != pDead {
		t.Fatalf("deaths diverged: sync %d dead, pipelined %d dead", dead, pDead)
	}
	if dead == 0 {
		t.Fatal("budget never killed a node — the deferred-charge death filter was not exercised")
	}
}

// TestSchedulerCloseMidPipelineDrains is the worker-leak pin for the
// pipelined scheduler: Close lands while a
// background presample of the next epoch is still in flight (every Step
// relaunches one) and must drain it — no deadlock, no goroutine left sampling a torn-down transport, and
// no outcome delivered twice. The parallel sweep's per-level worker pool
// is armed too, so its goroutines are covered by the same drain check.
func TestSchedulerCloseMidPipelineDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	scen := config.Figure3Scenario()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	net.SetParallel(4)
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	sched := engine.NewScheduler(engine.NewDeployment("figure3", net, src))
	op := mint.New()
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	if err := op.Attach(net, q); err != nil {
		t.Fatal(err)
	}
	sq := sched.Add([]engine.EpochRunner{op}, nil, nil)
	for i := 0; i < 3; i++ {
		out, err := sched.Step(sq)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if out.Epoch != model.Epoch(i) {
			t.Fatalf("step %d delivered epoch %d — outcomes duplicated or skipped", i, out.Epoch)
		}
	}
	sched.Close() // epoch 3's presample is in flight right now
	if _, err := sched.Step(sq); err == nil {
		t.Fatal("step after Close succeeded")
	}
	sched.Close() // idempotent

	// The presample goroutine and the sweep's level workers are join-based,
	// not detached: shortly after Close the goroutine count must return to
	// the baseline (allow scheduling slack, and poll — the runtime needs a
	// moment to retire exited goroutines).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
