package tput

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kspot/internal/model"
	"kspot/internal/topk"
	"kspot/internal/topk/central"
	"kspot/internal/topk/tja"
	"kspot/internal/topk/topktest"
	"kspot/internal/trace"
)

func TestExactOnFigure1Network(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 3, Agg: model.AggAvg, Window: 64}
	data := topk.HistoricData(topktest.WindowData(t, net, trace.NewDiurnal(3), q.Window))
	got, err := New().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	want := topk.ExactHistoric(data, q)
	if !model.EqualAnswers(got, want) {
		t.Fatalf("tput = %v, want %v", got, want)
	}
}

func TestExactAcrossWorkloads(t *testing.T) {
	net := topktest.GridNetwork(t, 25, 5)
	for _, k := range []int{1, 5, 12} {
		for _, w := range []int{8, 64, 200} {
			net.Reset()
			q := topk.HistoricQuery{K: k, Agg: model.AggAvg, Window: w}
			data := topk.HistoricData(topktest.WindowData(t, net, &trace.Uniform{Seed: int64(k*w) + 1, Min: 0, Max: 100}, w))
			got, err := New().Run(net, q, data)
			if err != nil {
				t.Fatal(err)
			}
			want := topk.ExactHistoric(data, q)
			if !model.EqualAnswers(got, want) {
				t.Fatalf("k=%d w=%d: tput=%v want=%v", k, w, got, want)
			}
		}
	}
}

// TestTJACheaperThanTPUT is the reproduction's historic headline: in-network
// joining beats flat thresholding on multihop topologies.
func TestTJACheaperThanTPUT(t *testing.T) {
	q := topk.HistoricQuery{K: 4, Agg: model.AggAvg, Window: 128}
	src := trace.NewDiurnal(5)

	netA := topktest.GridNetwork(t, 36, 6)
	data := topk.HistoricData(topktest.WindowData(t, netA, src, q.Window))
	if _, err := tja.New().Run(netA, q, data); err != nil {
		t.Fatal(err)
	}
	tjaBytes := netA.Counter.TotalTxBytes()

	netB := topktest.GridNetwork(t, 36, 6)
	if _, err := New().Run(netB, q, data); err != nil {
		t.Fatal(err)
	}
	tputBytes := netB.Counter.TotalTxBytes()

	if tjaBytes >= tputBytes {
		t.Errorf("TJA bytes %d not below TPUT %d", tjaBytes, tputBytes)
	}
}

func TestCheaperThanCentralized(t *testing.T) {
	q := topk.HistoricQuery{K: 2, Agg: model.AggAvg, Window: 256}
	netA := topktest.GridNetwork(t, 36, 6)
	// TPUT's uniform threshold assumes nodes score hot items similarly;
	// heterogeneous per-node offsets degrade it toward centralized cost
	// (the effect E7 sweeps). Use the homogeneous workload here.
	src := trace.NewDiurnal(8)
	src.NodeSpread = 0
	src.Noise = 0 // phase-1 lists must agree for τ₁ to be meaningful
	data := topk.HistoricData(topktest.WindowData(t, netA, src, q.Window))
	if _, err := New().Run(netA, q, data); err != nil {
		t.Fatal(err)
	}
	tputBytes := netA.Counter.TotalTxBytes()

	netB := topktest.GridNetwork(t, 36, 6)
	if _, err := central.NewHistoric().Run(netB, q, data); err != nil {
		t.Fatal(err)
	}
	centralBytes := netB.Counter.TotalTxBytes()
	if tputBytes >= centralBytes {
		t.Errorf("TPUT bytes %d not below centralized %d", tputBytes, centralBytes)
	}
}

func TestAdversarialUniformStillExact(t *testing.T) {
	// Uniform data gives thresholding nothing to exploit; correctness must
	// hold even when phase 2 ships a lot.
	net := topktest.GridNetwork(t, 16, 4)
	q := topk.HistoricQuery{K: 8, Agg: model.AggAvg, Window: 64}
	data := topk.HistoricData(topktest.WindowData(t, net, &trace.Uniform{Seed: 12, Min: 49, Max: 51}, q.Window))
	got, err := New().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	if want := topk.ExactHistoric(data, q); !model.EqualAnswers(got, want) {
		t.Fatalf("tput=%v want=%v", got, want)
	}
}

func TestRejectsBadInput(t *testing.T) {
	net := topktest.Fig1Network(t)
	if _, err := New().Run(net, topk.HistoricQuery{K: 1, Agg: model.AggMax, Window: 4}, nil); err == nil {
		t.Error("MAX historic accepted")
	}
}

// Property: TPUT equals the exact oracle.
func TestExactProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	net := topktest.GridNetwork(t, 16, 4)
	f := func(seed int64, kRaw, wRaw uint8) bool {
		k := 1 + int(kRaw)%10
		w := 2 + int(wRaw)%100
		net.Reset()
		q := topk.HistoricQuery{K: k, Agg: model.AggAvg, Window: w}
		data := topk.HistoricData(topktest.WindowData(t, net, &trace.Uniform{Seed: seed, Min: 0, Max: 100}, w))
		got, err := New().Run(net, q, data)
		if err != nil {
			return false
		}
		return model.EqualAnswers(got, topk.ExactHistoric(data, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestName(t *testing.T) {
	if New().Name() != "tput" {
		t.Error("name")
	}
}

// TestQuantizedTieAdversarial hammers the refinement cut's K-th-boundary
// tie rule with values drawn from centi-levels straddling AVG rounding
// boundaries: quantization collapses distinct sums into score ties, where
// a sum-space `ub >= tau2` (and the unguarded never-reported case) drops
// instants that tie the K-th answer and win on id. Seeded for
// reproducibility.
func TestQuantizedTieAdversarial(t *testing.T) {
	net := topktest.Fig1Network(t)
	rng := rand.New(rand.NewSource(1))
	levels := []model.Value{1.99, 2.00, 2.01, 2.02}
	for trial := 0; trial < 500; trial++ {
		w := 2 + rng.Intn(3)
		k := 1 + rng.Intn(2)
		nodes := 3 + rng.Intn(2)
		data := topk.HistoricData{}
		for n := 1; n <= nodes; n++ {
			s := make([]model.Value, w)
			for i := range s {
				s[i] = levels[rng.Intn(len(levels))]
			}
			data[model.NodeID(n)] = s
		}
		q := topk.HistoricQuery{K: k, Agg: model.AggAvg, Window: w}
		net.Reset()
		got, err := New().Run(net, q, data)
		if err != nil {
			t.Fatal(err)
		}
		if want := topk.ExactHistoric(data, q); !model.EqualAnswers(got, want) {
			t.Fatalf("trial %d (w=%d k=%d): tput=%v oracle=%v data=%v", trial, w, k, got, want, data)
		}
	}
}

// TestKthBoundaryTieRegression pins the concrete counterexample the
// brute-force sweep surfaced against the old sum-space refinement cut:
// instant 1's upper bound after phase 2 is strictly below τ₂ as a raw
// sum, but AVG over five nodes quantizes both to 3.60 — a tie the total
// order breaks toward instant 1, which the sum-space rule dropped.
func TestKthBoundaryTieRegression(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 1, Agg: model.AggAvg, Window: 3}
	data := topk.HistoricData{
		1: {2.00, 6.00, 4.01},
		2: {0.01, 2.00, 5.99},
		3: {0.01, 1.99, 4.01},
		4: {0.01, 4.00, 2.01},
		5: {6.00, 4.00, 2.00},
	}
	want := topk.ExactHistoric(data, q)
	if len(want) != 1 || want[0].Group != 1 {
		t.Fatalf("oracle did not tie toward instant 1: %v", want)
	}
	got, err := New().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	if !model.EqualAnswers(got, want) {
		t.Fatalf("K-th boundary tie dropped: tput=%v, oracle=%v", got, want)
	}
}
