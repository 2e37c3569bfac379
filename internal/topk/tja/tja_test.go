package tja

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topk"
	"kspot/internal/topk/central"
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
		t.Fatalf("tja = %v, want %v", got, want)
	}
}

func TestExactAcrossWorkloads(t *testing.T) {
	net := topktest.GridNetwork(t, 36, 6)
	sources := map[string]trace.Source{
		"diurnal": trace.NewDiurnal(7),
		"uniform": &trace.Uniform{Seed: 7, Min: 0, Max: 100},
		"walk":    trace.NewRandomWalk(7, 0, 100),
	}
	for name, src := range sources {
		for _, k := range []int{1, 4, 10} {
			for _, w := range []int{16, 128} {
				net.Reset()
				q := topk.HistoricQuery{K: k, Agg: model.AggAvg, Window: w}
				data := topk.HistoricData(topktest.WindowData(t, net, src, w))
				got, err := New().Run(net, q, data)
				if err != nil {
					t.Fatal(err)
				}
				want := topk.ExactHistoric(data, q)
				if !model.EqualAnswers(got, want) {
					t.Fatalf("%s k=%d w=%d: tja=%v want=%v", name, k, w, got, want)
				}
			}
		}
	}
}

func TestExactWithSum(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 2, Agg: model.AggSum, Window: 32}
	data := topk.HistoricData(topktest.WindowData(t, net, trace.NewDiurnal(9), q.Window))
	got, err := New().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	if want := topk.ExactHistoric(data, q); !model.EqualAnswers(got, want) {
		t.Fatalf("tja SUM = %v, want %v", got, want)
	}
}

func TestCheaperThanCentralized(t *testing.T) {
	q := topk.HistoricQuery{K: 4, Agg: model.AggAvg, Window: 256}
	netA := topktest.GridNetwork(t, 36, 6)
	data := topk.HistoricData(topktest.WindowData(t, netA, trace.NewDiurnal(5), q.Window))
	if _, err := New().Run(netA, q, data); err != nil {
		t.Fatal(err)
	}
	tjaBytes := netA.Counter.TotalTxBytes()

	netB := topktest.GridNetwork(t, 36, 6)
	if _, err := central.NewHistoric().Run(netB, q, data); err != nil {
		t.Fatal(err)
	}
	centralBytes := netB.Counter.TotalTxBytes()
	if tjaBytes >= centralBytes {
		t.Errorf("TJA bytes %d not below centralized %d", tjaBytes, centralBytes)
	}
	// The paper's claim is not marginal: expect a multiple.
	if 3*tjaBytes > centralBytes {
		t.Errorf("TJA %d vs centralized %d: less than 3x saving", tjaBytes, centralBytes)
	}
}

func TestPhaseAccounting(t *testing.T) {
	net := topktest.GridNetwork(t, 25, 5)
	q := topk.HistoricQuery{K: 3, Agg: model.AggAvg, Window: 64}
	data := topk.HistoricData(topktest.WindowData(t, net, &trace.Uniform{Seed: 2, Min: 0, Max: 100}, q.Window))
	if _, err := New().Run(net, q, data); err != nil {
		t.Fatal(err)
	}
	lb := net.Counter.TxBytes[radio.KindLB]
	hj := net.Counter.TxBytes[radio.KindHJ]
	if lb == 0 || hj == 0 {
		t.Errorf("phase bytes lb=%d hj=%d: both phases must show traffic", lb, hj)
	}
	if net.Counter.TxBytes[radio.KindData] != 0 {
		t.Error("TJA should not use the generic data kind")
	}
}

func TestSmallWindowSingleItem(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 1, Agg: model.AggAvg, Window: 1}
	data := topk.HistoricData(topktest.WindowData(t, net, &trace.Uniform{Seed: 4, Min: 10, Max: 20}, 1))
	got, err := New().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Group != 0 {
		t.Fatalf("single-item window = %v", got)
	}
}

func TestKLargerThanWindow(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 10, Agg: model.AggAvg, Window: 4}
	data := topk.HistoricData(topktest.WindowData(t, net, &trace.Uniform{Seed: 4, Min: 0, Max: 100}, 4))
	got, err := New().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	want := topk.ExactHistoric(data, q)
	if !model.EqualAnswers(got, want) {
		t.Fatalf("k>window: %v, want %v", got, want)
	}
}

func TestRejectsBadInput(t *testing.T) {
	net := topktest.Fig1Network(t)
	if _, err := New().Run(net, topk.HistoricQuery{K: 0, Agg: model.AggAvg, Window: 4}, nil); err == nil {
		t.Error("bad query accepted")
	}
	q := topk.HistoricQuery{K: 1, Agg: model.AggAvg, Window: 4}
	if _, err := New().Run(net, q, topk.HistoricData{3: {1, 2}}); err == nil {
		t.Error("mis-sized data accepted")
	}
}

// Property: TJA equals the exact oracle for random windows, k and skew.
func TestExactProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	net := topktest.GridNetwork(t, 16, 4)
	f := func(seed int64, kRaw, wRaw uint8) bool {
		k := 1 + int(kRaw)%12
		w := 4 + int(wRaw)%120
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
	if New().Name() != "tja" {
		t.Error("name")
	}
}

// TestQuantizedTieAdversarial hammers the K-th-boundary tie rule: values
// drawn from a few centi-levels straddling AVG rounding boundaries make
// quantization collapse distinct sums into score ties constantly, which
// is exactly where a sum-space clean-up cut (`ub >= tau` on raw sums)
// diverges from the oracle — the tie goes to the smaller instant id, and
// a dropped candidate can be that smaller id. Seeded, so a regression
// reproduces byte-for-byte.
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
			t.Fatalf("trial %d (w=%d k=%d): tja=%v oracle=%v data=%v", trial, w, k, got, want, data)
		}
	}
}

// TestKthBoundaryTieRegression pins the concrete counterexample the
// adversarial sweep surfaced against the old sum-space clean-up cut:
// instant 0's upper bound is strictly below τ as a raw sum, but AVG over
// three nodes quantizes both to 2.00 — a tie the system's total order
// breaks toward instant 0, which the sum-space rule silently dropped.
func TestKthBoundaryTieRegression(t *testing.T) {
	net := topktest.Fig1Network(t)
	q := topk.HistoricQuery{K: 1, Agg: model.AggAvg, Window: 4}
	data := topk.HistoricData{
		1: {1.99, 2.00, 2.00, 2.00},
		2: {2.00, 1.99, 2.00, 2.01},
		3: {2.00, 2.01, 1.99, 2.00},
	}
	want := topk.ExactHistoric(data, q)
	if len(want) != 1 || want[0].Group != 0 {
		t.Fatalf("oracle did not tie toward instant 0: %v", want)
	}
	got, err := New().Run(net, q, data)
	if err != nil {
		t.Fatal(err)
	}
	if !model.EqualAnswers(got, want) {
		t.Fatalf("K-th boundary tie dropped: tja=%v, oracle=%v", got, want)
	}
}
