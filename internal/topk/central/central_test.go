package central

import (
	"testing"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topk"
	"kspot/internal/topk/topktest"
	"kspot/internal/trace"
)

func TestSnapshotExactOnFigure1(t *testing.T) {
	net := topktest.Fig1Network(t)
	r := &topk.Runner{Net: net, Source: trace.Figure1Source(), Op: NewSnapshot(), Query: topk.SnapshotQuery{K: 4, Agg: model.AggAvg}}
	results, err := r.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Correct {
			t.Fatalf("centralized must be exact: %v vs %v", res.Answers, res.Exact)
		}
	}
	if !model.EqualAnswers(results[0].Answers, trace.Figure1Answers()) {
		t.Fatalf("ranking = %v", results[0].Answers)
	}
}

func TestSnapshotTrafficScalesWithDepth(t *testing.T) {
	net := topktest.Fig1Network(t)
	r := &topk.Runner{Net: net, Source: trace.Figure1Source(), Op: NewSnapshot(), Query: topk.SnapshotQuery{K: 1, Agg: model.AggAvg}}
	results, err := r.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Total data messages = sum of node depths (each reading is relayed
	// once per hop). Depths in the Figure 1 tree: s1,s2=1; s3,s4,s7=2;
	// s5,s9,s8=3; s6=4 -> 2*1+3*2+3*3+4 = 21, plus 9 beacons.
	if got := results[0].Traffic.Messages; got != 30 {
		t.Errorf("messages = %d, want 30", got)
	}
}

func TestHistoricExact(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 3, Agg: model.AggAvg, Window: 32}
	src := trace.NewDiurnal(5)
	data := topk.HistoricData(topktest.WindowData(t, net, src, q.Window))
	got, err := NewHistoric().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	want := topk.ExactHistoric(data, q)
	if !model.EqualAnswers(got, want) {
		t.Fatalf("historic = %v, want %v", got, want)
	}
}

func TestHistoricShipsWholeWindow(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 1, Agg: model.AggAvg, Window: 64}
	data := topk.HistoricData(topktest.WindowData(t, net, trace.NewDiurnal(5), q.Window))
	if _, err := NewHistoric().Run(net, q, data); err != nil {
		t.Fatal(err)
	}
	// Each node ships 64 * 6 bytes payload, relayed depth times; just
	// check the order of magnitude lower bound: 9 nodes * 384 payload.
	if got := net.Counter.TotalTxBytes(); got < 9*64*6 {
		t.Errorf("historic bytes = %d, implausibly small", got)
	}
	if net.Counter.Messages[radio.KindData] == 0 {
		t.Error("no data messages recorded")
	}
}

func TestHistoricRejectsBadInput(t *testing.T) {
	net := topktest.Fig1Network(t)
	if _, err := NewHistoric().Run(net, topk.HistoricQuery{K: 0, Agg: model.AggAvg, Window: 4}, topk.HistoricData{}); err == nil {
		t.Error("bad query accepted")
	}
	q := topk.HistoricQuery{K: 1, Agg: model.AggAvg, Window: 4}
	if _, err := NewHistoric().Run(net, q, topk.HistoricData{1: {1}}); err == nil {
		t.Error("bad data accepted")
	}
}

func TestNames(t *testing.T) {
	if NewSnapshot().Name() != "central" || NewHistoric().Name() != "central-historic" {
		t.Error("names")
	}
}
