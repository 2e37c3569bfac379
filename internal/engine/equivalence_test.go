package engine_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tag"
)

// substrateRun is everything one operator run leaves behind: the answer
// stream, the radio and energy totals, and every node's energy ledger.
type substrateRun struct {
	answers [][]model.Answer
	correct []bool
	snap    sim.Snapshot
	ledger  map[model.NodeID]float64
}

// runOn drives an operator over a fresh scenario network on the given
// substrate at the given sweep worker bound.
func runOn(t *testing.T, scen *config.Scenario, mk func() topk.SnapshotOperator, live bool, workers, epochs int) substrateRun {
	t.Helper()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	net.SetParallel(workers)
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	var tp engine.Transport = net
	if live {
		l := engine.NewLive(net, engine.LiveOptions{Window: 8})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		l.Start(ctx)
		defer l.Stop()
		tp = l
	}
	// The scenario's fault environment (loss_rate on the lossy legs), armed
	// the way kspot.Open and a wire shard server arm it.
	tp, err = faults.Stack(tp, scen.FaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	r := &topk.Runner{Net: tp, Source: src, Op: mk(), Query: q}
	results, err := r.Run(epochs)
	if err != nil {
		t.Fatal(err)
	}
	run := substrateRun{snap: tp.Snap(), ledger: make(map[model.NodeID]float64)}
	for _, res := range results {
		run.answers = append(run.answers, res.Answers)
		run.correct = append(run.correct, res.Correct)
	}
	for _, id := range net.Placement.SensorNodes() {
		run.ledger[id] = net.Ledger.Node(int(id))
	}
	return run
}

// requireSameRun asserts the live run reproduced the deterministic one in
// every observable: answers, correctness, every radio counter, and each
// node's energy to the bit.
func requireSameRun(t *testing.T, det, live substrateRun) {
	t.Helper()
	for e := range det.answers {
		if !model.EqualAnswers(det.answers[e], live.answers[e]) {
			t.Fatalf("epoch %d: deterministic=%v live=%v", e, det.answers[e], live.answers[e])
		}
		if det.correct[e] != live.correct[e] {
			t.Fatalf("epoch %d: correctness disagrees (det %v, live %v)", e, det.correct[e], live.correct[e])
		}
	}
	if det.snap != live.snap {
		t.Errorf("counters: deterministic %+v, live %+v", det.snap, live.snap)
	}
	for id, want := range det.ledger {
		if got := live.ledger[id]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("node %d energy: deterministic %v µJ, live %v µJ", id, want, got)
		}
	}
}

// TestSubstrateEquivalence pins the engine contract: the same operator
// attached to the deterministic simulator and to the concurrent substrate
// returns identical answers and — for a single query — identical counters
// of every kind: messages, frames, bytes, drops under a lossy radio, and
// the per-node energy ledger bit for bit, at every sweep worker bound. The
// reference is always the simulator's sequential walk. scale-1000 keeps
// every level on the sweeping goroutine; its dense variant (three times the
// radio radius: levels of 226, 596 and 178 nodes) shares levels with spare
// workers, which under GOMAXPROCS=1 only run when the sweeper blocks.
func TestSubstrateEquivalence(t *testing.T) {
	scaled := func(radius float64) func() *config.Scenario {
		return func() *config.Scenario {
			scen, err := config.ScaleScenario(1000)
			if err != nil {
				t.Fatal(err)
			}
			scen.Radius *= radius
			return scen
		}
	}
	lossy := func(mk func() *config.Scenario, rate float64) func() *config.Scenario {
		return func() *config.Scenario {
			scen := mk()
			scen.Loss = rate
			return scen
		}
	}
	small, large := []int{0}, []int{1, 2, 8}
	scenarios := []struct {
		name    string
		mk      func() *config.Scenario
		workers []int
		lossy   bool
	}{
		{"figure1", config.Figure1Scenario, small, false},
		{"figure3", config.Figure3Scenario, small, false},
		{"figure3-lossy", lossy(config.Figure3Scenario, 0.1), small, true},
		{"scale-1000-lossy", lossy(scaled(1), 0.05), large, true},
		{"scale-1000-dense-lossy", lossy(scaled(3), 0.05), large, true},
	}
	operators := []struct {
		name string
		mk   func() topk.SnapshotOperator
	}{
		{"mint", func() topk.SnapshotOperator { return mint.New() }},
		{"tag", func() topk.SnapshotOperator { return tag.New() }},
	}
	const epochs = 12
	for _, sc := range scenarios {
		for _, op := range operators {
			if len(sc.workers) > 1 && op.name != "mint" {
				continue // the scale legs vary the worker bound, not the operator
			}
			t.Run(fmt.Sprintf("%s/%s", sc.name, op.name), func(t *testing.T) {
				det := runOn(t, sc.mk(), op.mk, false, 1, epochs)
				if sc.lossy && det.snap.Drops == 0 {
					t.Fatal("the lossy radio dropped nothing: the run does not exercise the loss draws")
				}
				if !sc.lossy && op.name == "mint" {
					for e, ok := range det.correct {
						if !ok {
							t.Errorf("epoch %d: MINT answered incorrectly on the deterministic substrate", e)
						}
					}
				}
				for _, workers := range sc.workers {
					requireSameRun(t, det, runOn(t, sc.mk(), op.mk, true, workers, epochs))
				}
			})
		}
	}
}
