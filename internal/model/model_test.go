package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixedPointRoundTrip(t *testing.T) {
	cases := []Value{0, 1, -1, 75, 74.5, 76.55, 0.01, -0.01, 99.99, 1234.56}
	for _, v := range cases {
		if got := FromFixed(ToFixed(v)); got != v {
			t.Errorf("round trip %.4f -> %.4f", v, got)
		}
	}
}

func TestFixedPointRounding(t *testing.T) {
	if got := Quantize(75.004); got != 75.00 {
		t.Errorf("Quantize(75.004) = %v, want 75.00", got)
	}
	if got := Quantize(75.006); got != 75.01 {
		t.Errorf("Quantize(75.006) = %v, want 75.01", got)
	}
}

func TestFixedPointSaturates(t *testing.T) {
	if got := ToFixed(Value(1e18)); got != math.MaxInt32 {
		t.Errorf("ToFixed(+huge) = %d, want MaxInt32", got)
	}
	if got := ToFixed(Value(-1e18)); got != math.MinInt32 {
		t.Errorf("ToFixed(-huge) = %d, want MinInt32", got)
	}
}

func TestPartialMerge(t *testing.T) {
	a := NewPartial(3, 10)
	b := NewPartial(3, 20)
	m := a.Merge(b)
	if m.Sum() != 30 || m.Count != 2 || m.Min() != 10 || m.Max() != 20 {
		t.Errorf("merge = %+v", m)
	}
	if got := m.Eval(AggAvg); got != 15 {
		t.Errorf("avg = %v, want 15", got)
	}
}

func TestPartialMergeEmpty(t *testing.T) {
	var empty Partial
	p := NewPartial(1, 5)
	if got := empty.Merge(p); got != p {
		t.Errorf("empty.Merge(p) = %+v, want %+v", got, p)
	}
	if got := p.Merge(empty); got != p {
		t.Errorf("p.Merge(empty) = %+v, want %+v", got, p)
	}
}

func TestPartialMergeGroupMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic merging different groups")
		}
	}()
	NewPartial(1, 5).Merge(NewPartial(2, 5))
}

func TestPartialEval(t *testing.T) {
	p := NewPartial(1, 10).Merge(NewPartial(1, 30))
	tests := []struct {
		kind AggKind
		want Value
	}{
		{AggAvg, 20}, {AggMin, 10}, {AggMax, 30}, {AggSum, 40}, {AggCount, 2},
	}
	for _, tc := range tests {
		if got := p.Eval(tc.kind); got != tc.want {
			t.Errorf("%v = %v, want %v", tc.kind, got, tc.want)
		}
	}
}

func TestPartialEvalEmpty(t *testing.T) {
	var p Partial
	if got := p.Eval(AggSum); got != 0 {
		t.Errorf("empty SUM = %v", got)
	}
	if got := p.Eval(AggCount); got != 0 {
		t.Errorf("empty COUNT = %v", got)
	}
	if !math.IsNaN(float64(p.Eval(AggAvg))) {
		t.Errorf("empty AVG = %v, want NaN", p.Eval(AggAvg))
	}
	if !math.IsNaN(float64(p.Eval(AggMin))) {
		t.Errorf("empty MIN = %v, want NaN", p.Eval(AggMin))
	}
}

func TestParseAggKind(t *testing.T) {
	for _, s := range []string{"AVG", "AVERAGE", "avg"} {
		if k, ok := ParseAggKind(s); !ok || k != AggAvg {
			t.Errorf("ParseAggKind(%q) = %v,%v", s, k, ok)
		}
	}
	if _, ok := ParseAggKind("MEDIAN"); ok {
		t.Error("MEDIAN should not parse")
	}
}

func TestAggKindString(t *testing.T) {
	for k, want := range map[AggKind]string{AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX", AggSum: "SUM", AggCount: "COUNT"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// TestViewFigure1 reproduces the in-network view of the paper's Figure 1:
// rooms A..D mapped to groups 1..4, nine sensors, AVG(sound). The sink view
// must rank C first with 75, then A with 74.5, D with 64, B with 41.
func TestViewFigure1(t *testing.T) {
	const (
		roomA GroupID = 1
		roomB GroupID = 2
		roomC GroupID = 3
		roomD GroupID = 4
	)
	v := NewView()
	// s1=40 (B), s2=74 (A), s3=75 (A), s4=42 (B), s5=75 (C), s6=75 (C),
	// s7=78 (D), s8=75 (D), s9=39 (D). Matches the figure's labels.
	for _, r := range []Reading{
		{Node: 1, Group: roomB, Value: 40},
		{Node: 2, Group: roomA, Value: 74},
		{Node: 3, Group: roomA, Value: 75},
		{Node: 4, Group: roomB, Value: 42},
		{Node: 5, Group: roomC, Value: 75},
		{Node: 6, Group: roomC, Value: 75},
		{Node: 7, Group: roomD, Value: 78},
		{Node: 8, Group: roomD, Value: 75},
		{Node: 9, Group: roomD, Value: 39},
	} {
		v.Add(r)
	}
	top := v.TopK(AggAvg, 4)
	want := []Answer{{roomC, 75}, {roomA, 74.5}, {roomD, 64}, {roomB, 41}}
	if !EqualAnswers(top, want) {
		t.Fatalf("Figure 1 ranking = %v, want %v", top, want)
	}
	if top1 := v.TopK(AggAvg, 1); top1[0].Group != roomC {
		t.Fatalf("top-1 = %v, want room C", top1)
	}
}

func TestViewTopKTieBreak(t *testing.T) {
	v := NewView()
	v.Add(Reading{Node: 1, Group: 7, Value: 50})
	v.Add(Reading{Node: 2, Group: 3, Value: 50})
	top := v.TopK(AggAvg, 2)
	if top[0].Group != 3 || top[1].Group != 7 {
		t.Errorf("tie break = %v, want group 3 before 7", top)
	}
}

func TestViewTopKZero(t *testing.T) {
	v := NewView()
	v.Add(Reading{Group: 1, Value: 5})
	if got := v.TopK(AggAvg, 0); got != nil {
		t.Errorf("TopK(0) = %v, want nil", got)
	}
}

func TestViewMergeSupersetProperty(t *testing.T) {
	// A parent view merged from children must equal the view built from all
	// readings directly — the MINT hierarchy-of-views invariant.
	rng := rand.New(rand.NewSource(42))
	direct := NewView()
	children := []*View{NewView(), NewView(), NewView()}
	for i := 0; i < 300; i++ {
		r := Reading{Node: NodeID(i), Group: GroupID(rng.Intn(10)), Value: Value(rng.Intn(10000)) / 100}
		direct.Add(r)
		children[rng.Intn(3)].Add(r)
	}
	merged := NewView()
	for _, c := range children {
		merged.MergeView(c)
	}
	if !EqualAnswers(merged.TopK(AggAvg, 10), direct.TopK(AggAvg, 10)) {
		t.Errorf("merged view ranking differs from direct view")
	}
	if merged.Len() != direct.Len() {
		t.Errorf("merged.Len=%d direct.Len=%d", merged.Len(), direct.Len())
	}
}

func TestViewClone(t *testing.T) {
	v := NewView()
	v.Add(Reading{Group: 1, Value: 10})
	c := v.Clone()
	c.Add(Reading{Group: 1, Value: 20})
	p, _ := v.Get(1)
	if p.Count != 1 {
		t.Errorf("clone mutated original: %+v", p)
	}
}

func TestViewRemove(t *testing.T) {
	v := NewView()
	v.Add(Reading{Group: 1, Value: 10})
	v.Add(Reading{Group: 2, Value: 20})
	v.Remove(1)
	if _, ok := v.Get(1); ok {
		t.Error("group 1 still present after Remove")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d, want 1", v.Len())
	}
}

func TestKthScore(t *testing.T) {
	answers := []Answer{{1, 30}, {2, 20}, {3, 10}}
	if got := KthScore(answers, 2); got != 20 {
		t.Errorf("KthScore(2) = %v", got)
	}
	if got := KthScore(answers, 4); !math.IsInf(float64(got), -1) {
		t.Errorf("KthScore beyond len = %v, want -Inf", got)
	}
	if got := KthScore(answers, 0); !math.IsInf(float64(got), -1) {
		t.Errorf("KthScore(0) = %v, want -Inf", got)
	}
}

func TestRecall(t *testing.T) {
	want := []Answer{{1, 3}, {2, 2}, {3, 1}}
	if got := Recall([]Answer{{1, 3}, {2, 2}, {3, 1}}, want); got != 1 {
		t.Errorf("perfect recall = %v", got)
	}
	if got := Recall([]Answer{{1, 3}, {9, 2}, {8, 1}}, want); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("recall = %v, want 1/3", got)
	}
	if got := Recall(nil, nil); got != 1 {
		t.Errorf("empty recall = %v, want 1", got)
	}
}

func TestSortAnswersStable(t *testing.T) {
	a := []Answer{{5, 10}, {2, 10}, {9, 20}}
	SortAnswers(a)
	if a[0].Group != 9 || a[1].Group != 2 || a[2].Group != 5 {
		t.Errorf("sorted = %v", a)
	}
}

// Property: TopK never returns more than K answers and is a prefix of the
// full ranking.
func TestTopKPrefixProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewView()
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			v.Add(Reading{Node: NodeID(i), Group: GroupID(rng.Intn(12)), Value: Value(rng.Intn(5000)) / 100})
		}
		k := 1 + int(kRaw)%16
		full := v.TopK(AggAvg, v.Len())
		top := v.TopK(AggAvg, k)
		if len(top) > k {
			return false
		}
		for i := range top {
			if top[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestViewReuseAllocationFree pins the steady-state contract of the pooled
// view representation: once a view and an answer buffer have capacity,
// Reset + Add + TopKInto cycles allocate nothing. This is the invariant the
// epoch hot path (sim.Sweep, the operators) is built on.
func TestViewReuseAllocationFree(t *testing.T) {
	v := NewView()
	buf := make([]Answer, 0, 16)
	cycle := func() {
		v.Reset()
		for i := 0; i < 32; i++ {
			v.Add(Reading{Node: NodeID(i), Group: GroupID(i % 8), Value: Value(i * 3 % 97)})
		}
		buf = v.TopKInto(AggAvg, 3, buf)
		if len(buf) != 3 {
			t.Fatal("TopKInto lost answers")
		}
	}
	cycle() // warm the capacities
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("View reuse cycle allocates %v times per run, want 0", allocs)
	}
}

// TestCodecCallerBufferAllocationFree pins the codec side: a view round-trip
// through AppendView and DecodeViewInto with caller-owned buffers allocates
// nothing in steady state.
func TestCodecCallerBufferAllocationFree(t *testing.T) {
	v := NewView()
	for i := 0; i < 32; i++ {
		v.Add(Reading{Node: NodeID(i), Group: GroupID(i % 8), Value: Value(i)})
	}
	buf := make([]byte, 0, ViewWireSize(v))
	dec := NewView()
	cycle := func() {
		buf = AppendView(buf[:0], v)
		if err := DecodeViewInto(dec, buf); err != nil {
			t.Fatal(err)
		}
		if dec.Len() != v.Len() {
			t.Fatal("round trip lost groups")
		}
	}
	cycle() // warm the decode view's capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("codec round trip allocates %v times per run, want 0", allocs)
	}
}

// TestViewMapSpillSemantics drives a view across the slice→map threshold
// and checks the two representations answer identically (Get/Remove/Len,
// sorted iteration, TopK ranking).
func TestViewMapSpillSemantics(t *testing.T) {
	v := NewView()
	const groups = 3 * viewMapThreshold
	for i := 0; i < groups; i++ {
		v.Add(Reading{Node: NodeID(i), Group: GroupID(i), Value: Value(i % 101)})
	}
	if v.Len() != groups {
		t.Fatalf("Len = %d, want %d", v.Len(), groups)
	}
	if v.m == nil {
		t.Fatalf("view with %d groups did not spill to the map representation", groups)
	}
	gs := v.Groups()
	for i := 1; i < len(gs); i++ {
		if gs[i-1] >= gs[i] {
			t.Fatal("Groups not sorted after spill")
		}
	}
	if p, ok := v.Get(GroupID(groups - 1)); !ok || p.Count != 1 {
		t.Fatalf("Get after spill = %+v, %v", p, ok)
	}
	v.Remove(GroupID(5))
	if _, ok := v.Get(GroupID(5)); ok || v.Len() != groups-1 {
		t.Fatal("Remove after spill failed")
	}
	// Ranking agrees with a small-view rebuild of the same content.
	small := NewView()
	v.ForEach(func(p Partial) { small.AddPartial(p) })
	if !EqualAnswers(v.TopK(AggAvg, 10), small.TopK(AggAvg, 10)) {
		t.Fatal("TopK disagrees across representations")
	}
	// And the wire form round-trips identically.
	got := NewView()
	if err := DecodeViewInto(got, AppendView(nil, v)); err != nil {
		t.Fatal(err)
	}
	if !EqualAnswers(v.TopK(AggAvg, groups), got.TopK(AggAvg, groups)) {
		t.Fatal("encode/decode after spill lost content")
	}
}
