package topk

import (
	"testing"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/trace"
)

func fig1Net(t *testing.T) *sim.Network {
	t.Helper()
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	return sim.FromTree(p, tree, sim.DefaultOptions())
}

func fig1Readings(net *sim.Network) map[model.NodeID]model.Reading {
	readings := map[model.NodeID]model.Reading{}
	for id, v := range trace.Figure1Values() {
		readings[id] = model.Reading{Node: id, Group: net.Placement.Groups[id], Value: v}
	}
	return readings
}

func TestSweepNoPruneEqualsOracle(t *testing.T) {
	net := fig1Net(t)
	readings := fig1Readings(net)
	v := net.Sweep(0, radio.KindData, readings, nil)
	got := v.TopK(model.AggAvg, 4)
	if !model.EqualAnswers(got, trace.Figure1Answers()) {
		t.Fatalf("sweep view = %v", got)
	}
	// Every sensor transmits once.
	if msgs := net.Counter.TotalMessages(); msgs != 9 {
		t.Fatalf("messages = %d, want 9", msgs)
	}
}

func TestSweepPruneEverythingIsSilent(t *testing.T) {
	net := fig1Net(t)
	readings := fig1Readings(net)
	v := net.Sweep(0, radio.KindData, readings, func(model.NodeID, *model.View, *model.View) *model.View {
		return nil
	})
	if v.Len() != 0 {
		t.Fatalf("sink view = %d groups, want 0", v.Len())
	}
	if msgs := net.Counter.TotalMessages(); msgs != 0 {
		t.Fatalf("messages = %d; fully pruned nodes must not transmit", msgs)
	}
}

func TestSweepPrunePropagates(t *testing.T) {
	// Prune room D everywhere: the sink must still see A, B, C exactly.
	net := fig1Net(t)
	readings := fig1Readings(net)
	v := net.Sweep(0, radio.KindData, readings, func(_ model.NodeID, view, out *model.View) *model.View {
		out.MergeView(view)
		out.Remove(trace.Fig1RoomD)
		return out
	})
	if _, ok := v.Get(trace.Fig1RoomD); ok {
		t.Fatal("room D leaked through the prune")
	}
	top := v.TopK(model.AggAvg, 3)
	want := []model.Answer{{Group: trace.Fig1RoomC, Score: 75}, {Group: trace.Fig1RoomA, Score: 74.5}, {Group: trace.Fig1RoomB, Score: 41}}
	if !model.EqualAnswers(top, want) {
		t.Fatalf("pruned ranking = %v", top)
	}
}

func TestSweepMissingReadings(t *testing.T) {
	net := fig1Net(t)
	readings := fig1Readings(net)
	delete(readings, 6) // s6 slept through the epoch
	v := net.Sweep(0, radio.KindData, readings, nil)
	p, ok := v.Get(trace.Fig1RoomC)
	if !ok || p.Count != 1 {
		t.Fatalf("room C partial = %+v, want count 1 (only s5)", p)
	}
}

func TestInstallQueryReachesAll(t *testing.T) {
	net := fig1Net(t)
	reached := InstallQuery(net, 0)
	if len(reached) != 10 {
		t.Fatalf("install reached %d nodes, want 10", len(reached))
	}
	if got := net.Counter.TxBytes[radio.KindCtrl]; got != 9*(QueryInstallSize+radio.DefaultHeaderSize) {
		t.Fatalf("install bytes = %d", got)
	}
}

func TestSenseEpochChargesAndQuantizes(t *testing.T) {
	net := fig1Net(t)
	readings := engine.SenseEpoch(net, trace.Figure1Source(), 3)
	if len(readings) != 9 {
		t.Fatalf("readings = %d", len(readings))
	}
	if readings[1].Epoch != 3 || readings[1].Group != trace.Fig1RoomB {
		t.Fatalf("reading meta = %+v", readings[1])
	}
	if net.Ledger.Total() != 9*net.Energy.SenseCost {
		t.Fatalf("sense energy = %v", net.Ledger.Total())
	}
}
