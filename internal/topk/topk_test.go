package topk

import (
	"math"
	"testing"
	"testing/quick"

	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/trace"
)

func TestSnapshotQueryValidate(t *testing.T) {
	if err := (SnapshotQuery{K: 1, Agg: model.AggAvg}).Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := (SnapshotQuery{K: 0}).Validate(); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestHistoricQueryValidate(t *testing.T) {
	for _, ok := range []HistoricQuery{
		{K: 3, Agg: model.AggAvg, Window: 100},
		{K: 1 << 17, Agg: model.AggSum, Window: 65535},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("valid query rejected: %v", err)
		}
	}
	bad := []HistoricQuery{
		{K: 0, Agg: model.AggAvg, Window: 10},
		{K: 1, Agg: model.AggAvg, Window: 0},
		{K: 1, Agg: model.AggMin, Window: 10},
		{K: 1, Agg: model.AggAvg, Window: 65536}, // instant counts travel in 16 bits
		{K: 1, Agg: model.AggAvg, Window: 1 << 17},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestHistoricDataValidate(t *testing.T) {
	q := HistoricQuery{K: 1, Agg: model.AggAvg, Window: 3}
	good := HistoricData{1: {1, 2, 3}}
	if err := good.Validate(q); err != nil {
		t.Errorf("good data rejected: %v", err)
	}
	bad := HistoricData{1: {1, 2}}
	if err := bad.Validate(q); err == nil {
		t.Error("short series accepted")
	}
}

func TestExactSnapshotMatchesView(t *testing.T) {
	readings := map[model.NodeID]model.Reading{}
	vals := trace.Figure1Values()
	p := trace.Figure1Placement()
	for n, v := range vals {
		readings[n] = model.Reading{Node: n, Group: p.Groups[n], Value: v}
	}
	got := ExactSnapshot(readings, SnapshotQuery{K: 4, Agg: model.AggAvg})
	if !model.EqualAnswers(got, trace.Figure1Answers()) {
		t.Fatalf("exact = %v", got)
	}
}

func TestExactHistoric(t *testing.T) {
	q := HistoricQuery{K: 2, Agg: model.AggAvg, Window: 4}
	data := HistoricData{
		1: {10, 50, 20, 40},
		2: {30, 50, 20, 40},
	}
	got := ExactHistoric(data, q)
	want := []model.Answer{{Group: 1, Score: 50}, {Group: 3, Score: 40}}
	if !model.EqualAnswers(got, want) {
		t.Fatalf("historic exact = %v, want %v", got, want)
	}
}

func TestExactHistoricSum(t *testing.T) {
	q := HistoricQuery{K: 1, Agg: model.AggSum, Window: 2}
	data := HistoricData{1: {10, 5}, 2: {10, 30}}
	got := ExactHistoric(data, q)
	if got[0].Group != 1 || got[0].Score != 35 {
		t.Fatalf("sum exact = %v", got)
	}
}

func TestLocalTopK(t *testing.T) {
	series := []model.Value{5, 40, 40, 10, 99}
	got := LocalTopK(series, 3)
	want := []int{4, 1, 2} // 99, then the 40s in index order
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("LocalTopK = %v, want %v", got, want)
	}
	if got := LocalTopK(series, 10); len(got) != 5 {
		t.Fatalf("k beyond len = %v", got)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	b := Beacon{Epoch: 42, Gamma: 74.5, TopK: []model.GroupID{3, 1, 9}}
	got, err := DecodeBeacon(EncodeBeacon(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || got.Gamma != 74.5 || len(got.TopK) != 3 || got.TopK[0] != 3 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestBeaconMinusInf(t *testing.T) {
	b := Beacon{Epoch: 1, Gamma: MinusInf()}
	got, err := DecodeBeacon(EncodeBeacon(b))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(got.Gamma), -1) {
		t.Fatalf("gamma = %v, want -Inf", got.Gamma)
	}
}

func TestBeaconErrors(t *testing.T) {
	if _, err := DecodeBeacon([]byte{1, 2}); err == nil {
		t.Error("short beacon accepted")
	}
	b := EncodeBeacon(Beacon{Epoch: 1, TopK: []model.GroupID{1, 2}})
	if _, err := DecodeBeacon(b[:len(b)-1]); err == nil {
		t.Error("truncated membership list accepted")
	}
}

func TestBeaconSizeAccounting(t *testing.T) {
	empty := EncodeBeacon(Beacon{Epoch: 1, Gamma: MinusInf()})
	if len(empty) != 10 {
		t.Errorf("empty beacon = %d bytes, want 10", len(empty))
	}
	withK := EncodeBeacon(Beacon{Epoch: 1, Gamma: 5, TopK: []model.GroupID{1, 2, 3}})
	if len(withK) != 16 {
		t.Errorf("k=3 beacon = %d bytes, want 16", len(withK))
	}
}

func TestBeaconProperty(t *testing.T) {
	f := func(epoch uint32, gammaRaw int32, ids []uint16) bool {
		if len(ids) > 100 {
			ids = ids[:100]
		}
		groups := make([]model.GroupID, len(ids))
		for i, id := range ids {
			groups[i] = model.GroupID(id)
		}
		b := Beacon{Epoch: model.Epoch(epoch), Gamma: model.FromFixed(model.FixedPoint(gammaRaw)), TopK: groups}
		got, err := DecodeBeacon(EncodeBeacon(b))
		if err != nil {
			return false
		}
		if got.Epoch != b.Epoch || len(got.TopK) != len(b.TopK) {
			return false
		}
		// MinInt32 encodes the -Inf sentinel.
		if gammaRaw == math.MinInt32 {
			return math.IsInf(float64(got.Gamma), -1)
		}
		return got.Gamma == b.Gamma
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	results := []EpochResult{
		{Correct: true, Recall: 1, Traffic: sim.Snapshot{Messages: 10, TxBytes: 100, EnergyUJ: 50}},
		{Correct: false, Recall: 0.5, Traffic: sim.Snapshot{Messages: 20, TxBytes: 300, EnergyUJ: 150}},
	}
	s := Summarize(results)
	if s.Epochs != 2 || s.CorrectPct != 50 || s.MeanRecall != 0.75 {
		t.Errorf("summary = %+v", s)
	}
	if s.TxBytes != 400 || s.BytesPerEp != 200 || s.MsgsPerEp != 15 {
		t.Errorf("traffic summary = %+v", s)
	}
	if s.EnergyPerEp != 100 {
		t.Errorf("energy per epoch = %v", s.EnergyPerEp)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Epochs != 0 || s.CorrectPct != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

// TestBeaconGammaSentinels pins the sentinel reservation at both extremes:
// an infinite γ round-trips as the same infinity, and a finite γ that
// quantizes exactly to a sentinel fixed-point is clamped one step inside it
// on encode instead of being mis-decoded as an infinity.
func TestBeaconGammaSentinels(t *testing.T) {
	// +Inf round-trips (previously it silently saturated to a finite max).
	got, err := DecodeBeacon(EncodeBeacon(Beacon{Epoch: 1, Gamma: model.Value(math.Inf(1))}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(got.Gamma), 1) {
		t.Fatalf("+Inf gamma decoded as %v", got.Gamma)
	}
	// −Inf still round-trips.
	got, err = DecodeBeacon(EncodeBeacon(Beacon{Epoch: 1, Gamma: MinusInf()}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(got.Gamma), -1) {
		t.Fatalf("-Inf gamma decoded as %v", got.Gamma)
	}
	// A legitimate γ on the negative sentinel clamps finite (one
	// centi-unit up), never decodes as −Inf.
	lowest := model.FromFixed(math.MinInt32) // quantizes exactly to MinInt32
	got, err = DecodeBeacon(EncodeBeacon(Beacon{Epoch: 1, Gamma: lowest}))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(float64(got.Gamma), -1) {
		t.Fatalf("finite gamma %v decoded as -Inf", lowest)
	}
	if want := model.FromFixed(math.MinInt32 + 1); got.Gamma != want {
		t.Fatalf("clamped gamma = %v, want %v", got.Gamma, want)
	}
	// Same at the positive sentinel (values beyond the fixed-point range
	// saturate onto it).
	highest := model.FromFixed(math.MaxInt32)
	got, err = DecodeBeacon(EncodeBeacon(Beacon{Epoch: 1, Gamma: highest}))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(float64(got.Gamma), 1) {
		t.Fatalf("finite gamma %v decoded as +Inf", highest)
	}
	if want := model.FromFixed(math.MaxInt32 - 1); got.Gamma != want {
		t.Fatalf("clamped gamma = %v, want %v", got.Gamma, want)
	}
}
