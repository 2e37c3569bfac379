package mint

import (
	"testing"

	"kspot/internal/engine"
	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/topk"
	"kspot/internal/topk/topktest"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

// TestNodeDeathDegradesGracefully: when nodes run out of energy mid-run the
// operator must keep serving answers (stale or partial) without error.
func TestNodeDeathDegradesGracefully(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.BudgetJoules = 0.02 // a few hundred transmissions per node
	net := topktest.Fig1NetworkOpts(t, opts)
	src := trace.Figure1Source()
	r := &topk.Runner{Net: net, Source: src, Op: New(), Query: topk.SnapshotQuery{K: 1, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}}
	results, err := r.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	// Someone must actually have died for this test to mean anything.
	dead := 0
	for _, id := range net.Placement.SensorNodes() {
		if !net.Alive(id) {
			dead++
		}
	}
	if dead == 0 {
		t.Skip("budget too generous; no deaths")
	}
	// Answers keep flowing to the end.
	last := results[len(results)-1]
	if len(last.Answers) == 0 {
		t.Fatal("no answers after node deaths")
	}
}

// TestLossyStillServes: heavy loss must never wedge the operator.
func TestLossyStillServes(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.Radio.MaxRetries = 1
	net := topktest.Fig1NetworkOpts(t, opts)
	if err := faults.Arm(net, faults.Config{Seed: 17, Loss: 0.4}); err != nil {
		t.Fatal(err)
	}
	r := &topk.Runner{Net: net, Source: trace.Figure1Source(), Op: New(), Query: topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}}
	results, err := r.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, res := range results {
		if len(res.Answers) > 0 {
			served++
		}
	}
	if served < 40 {
		t.Fatalf("served answers on only %d/50 lossy epochs", served)
	}
}

// TestOrphanRecallAccounting is the churn-scenario pin of recall
// accounting: when a relay dies its subtree is stranded — the orphaned
// nodes keep sensing (they are alive, the oracle sees them) but their
// readings can no longer reach the sink — so the loss must
// surface through recall accounting (stats.Score), not as a silently
// shrunken answer set that still claims exactness.
func TestOrphanRecallAccounting(t *testing.T) {
	// Sink 0 — relay 2 — {3, 4 — 5}: the loud room (group 2) hangs
	// entirely behind relay 2; node 6 (group 1, quiet) attaches to the
	// sink directly. Killing relay 2 strands the loud room.
	p := topo.NewPlacement()
	pts := map[model.NodeID]topo.Point{0: {X: 0, Y: 0}, 2: {X: 10, Y: 0}, 3: {X: 20, Y: -5}, 4: {X: 20, Y: 5}, 5: {X: 30, Y: 5}, 6: {X: 0, Y: 10}}
	for id, pt := range pts {
		p.Positions[id] = pt
	}
	p.Groups = map[model.NodeID]model.GroupID{2: 1, 3: 2, 4: 2, 5: 2, 6: 1}
	links := topo.NewLinks()
	for _, e := range [][2]model.NodeID{{0, 2}, {2, 3}, {2, 4}, {4, 5}, {3, 5}, {0, 6}} {
		links.Connect(e[0], e[1])
	}
	tree := &topo.Tree{
		Parent:   map[model.NodeID]model.NodeID{2: 0, 3: 2, 4: 2, 5: 4, 6: 0},
		Children: map[model.NodeID][]model.NodeID{0: {2, 6}, 2: {3, 4}, 4: {5}},
		Depth:    map[model.NodeID]int{0: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 1},
		Root:     model.Sink,
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	net := sim.FromTree(p, links, tree, sim.DefaultOptions())
	src := trace.NewFixture(map[model.NodeID][]model.Value{
		2: {10}, 6: {10}, // group 1: quiet
		3: {90}, 4: {90}, 5: {90}, // group 2: loud
	})
	q := topk.SnapshotQuery{K: 1, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	op := New()
	r := &topk.Runner{Net: net, Source: src, Op: op, Query: q}
	results, err := r.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Correct || res.Recall != 1 {
			t.Fatalf("pre-churn epoch %d not exact: %+v", res.Epoch, res)
		}
	}

	// Relay 2 churns out; its whole subtree (the loud room) strands: the
	// tree keeps routing through the downed relay, which relays nothing.
	// Re-attaching drops the views the sink cached before the churn.
	net.SetChurn([]sim.ChurnEvent{{Node: 2, Epoch: 10, Down: true}})
	if err := op.Attach(net, q); err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(10); e < 14; e++ {
		readings := engine.SenseEpoch(net, src, e)
		answers, err := op.Epoch(e, readings)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) == 0 {
			t.Fatal("answers stopped flowing after churn")
		}
		exact := topk.ExactSnapshot(readings, q)
		m := stats.Score(answers, exact)
		// The orphaned room still tops the oracle; the sink can only see
		// the quiet room. Recall accounting must expose the gap.
		if m.Recall != 0 || m.Exact {
			t.Fatalf("epoch %d: orphaned subtree not reflected in recall: answers=%v exact=%v metrics=%+v",
				e, answers, exact, m)
		}
	}
}
