package trace

import (
	"math"
	"testing"

	"kspot/internal/model"
	"kspot/internal/topo"
)

func TestFixtureReplay(t *testing.T) {
	f := NewFixture(map[model.NodeID][]model.Value{
		1: {10, 20, 30},
		2: {5},
	})
	if got := f.Sample(1, 0); got != 10 {
		t.Errorf("Sample(1,0) = %v", got)
	}
	if got := f.Sample(1, 2); got != 30 {
		t.Errorf("Sample(1,2) = %v", got)
	}
	if got := f.Sample(1, 99); got != 30 {
		t.Errorf("epochs beyond table must repeat last, got %v", got)
	}
	if got := f.Sample(2, 5); got != 5 {
		t.Errorf("Sample(2,5) = %v", got)
	}
	if got := f.Sample(3, 0); got != 0 {
		t.Errorf("missing node must read 0, got %v", got)
	}
}

func TestFixtureIsolatedFromCaller(t *testing.T) {
	src := map[model.NodeID][]model.Value{1: {10}}
	f := NewFixture(src)
	src[1][0] = 99
	if got := f.Sample(1, 0); got != 10 {
		t.Errorf("fixture shares memory with caller: %v", got)
	}
}

func TestRoomActivityDeterministic(t *testing.T) {
	groups := map[model.NodeID]model.GroupID{1: 1, 2: 1, 3: 2}
	a := NewRoomActivity(7, groups, 2)
	b := NewRoomActivity(7, groups, 2)
	for e := model.Epoch(0); e < 50; e++ {
		for n := model.NodeID(1); n <= 3; n++ {
			if a.Sample(n, e) != b.Sample(n, e) {
				t.Fatalf("non-deterministic at node %d epoch %d", n, e)
			}
		}
	}
}

func TestRoomActivityBounds(t *testing.T) {
	groups := map[model.NodeID]model.GroupID{}
	for i := model.NodeID(1); i <= 20; i++ {
		groups[i] = model.GroupID(i%5 + 1)
	}
	src := NewRoomActivity(3, groups, 5)
	for e := model.Epoch(0); e < 200; e++ {
		for n := model.NodeID(1); n <= 20; n++ {
			v := float64(src.Sample(n, e))
			if v < 0 || v > 100 {
				t.Fatalf("sound level %v out of [0,100]", v)
			}
		}
	}
}

func TestRoomActivityNodesShareRoomBase(t *testing.T) {
	groups := map[model.NodeID]model.GroupID{1: 1, 2: 1, 3: 2}
	src := NewRoomActivity(11, groups, 2)
	// Two sensors in the same room must read similar values (within jitter).
	diffSame, diffOther := 0.0, 0.0
	for e := model.Epoch(0); e < 100; e++ {
		diffSame += math.Abs(float64(src.Sample(1, e) - src.Sample(2, e)))
		diffOther += math.Abs(float64(src.Sample(1, e) - src.Sample(3, e)))
	}
	if diffSame >= diffOther {
		t.Errorf("same-room divergence %v >= cross-room %v", diffSame, diffOther)
	}
}

func TestDiurnalCycle(t *testing.T) {
	d := NewDiurnal(5)
	d.Noise = 0
	d.NodeSpread = 0
	coolest := d.Sample(1, d.EpochsPerDay/4*0) // epoch 0: sin(-pi/2) = -1
	warmest := d.Sample(1, d.EpochsPerDay/2)   // midday
	if coolest >= warmest {
		t.Errorf("diurnal cycle inverted: %v >= %v", coolest, warmest)
	}
	// Periodicity.
	if d.Sample(1, 0) != d.Sample(1, d.EpochsPerDay) {
		t.Error("diurnal not periodic")
	}
}

func TestRandomWalkBounds(t *testing.T) {
	w := NewRandomWalk(9, 0, 100)
	for e := model.Epoch(0); e < 300; e++ {
		v := float64(w.Sample(3, e))
		if v < 0 || v > 100 {
			t.Fatalf("walk out of bounds: %v", v)
		}
	}
}

func TestRandomWalkContinuity(t *testing.T) {
	w := NewRandomWalk(9, 0, 100)
	for e := model.Epoch(1); e < 100; e++ {
		delta := math.Abs(float64(w.Sample(3, e) - w.Sample(3, e-1)))
		if delta > 2*w.StepSize+1e-9 {
			t.Fatalf("walk jumped %v at epoch %d (step %v)", delta, e, w.StepSize)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	groups := map[model.NodeID]model.GroupID{1: 1, 2: 2, 3: 4, 4: 8}
	z := NewZipf(3, groups, 1.5, 1000)
	v1 := float64(z.Sample(1, 0))
	v4 := float64(z.Sample(4, 0))
	if v1 <= v4 {
		t.Errorf("group 1 (%v) must dominate group 8 (%v)", v1, v4)
	}
}

func TestZipfClampsExponent(t *testing.T) {
	z := NewZipf(1, map[model.NodeID]model.GroupID{1: 1}, 0.5, 100)
	if z.S <= 1 {
		t.Errorf("exponent not clamped: %v", z.S)
	}
}

func TestUniformRange(t *testing.T) {
	u := &Uniform{Seed: 2, Min: 10, Max: 20}
	for e := model.Epoch(0); e < 500; e++ {
		v := float64(u.Sample(1, e))
		if v < 10 || v >= 20 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestFigure1Fixture(t *testing.T) {
	p := Figure1Placement()
	if got := len(p.SensorNodes()); got != 9 {
		t.Fatalf("sensors = %d, want 9", got)
	}
	sizes := p.GroupSize()
	if sizes[Fig1RoomA] != 2 || sizes[Fig1RoomB] != 2 || sizes[Fig1RoomC] != 2 || sizes[Fig1RoomD] != 3 {
		t.Fatalf("room sizes = %v", sizes)
	}
	vals := Figure1Values()
	v := model.NewView()
	for n, val := range vals {
		v.Add(model.Reading{Node: n, Group: p.Groups[n], Value: val})
	}
	if got, want := v.TopK(model.AggAvg, 4), Figure1Answers(); !model.EqualAnswers(got, want) {
		t.Fatalf("Figure 1 ranking = %v, want %v", got, want)
	}
}

func TestFigure1TreeMatchesFigure(t *testing.T) {
	tree := Figure1Tree()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Parent[9] != 4 {
		t.Errorf("s9's parent = %d, want s4 (the figure's crucial edge)", tree.Parent[9])
	}
	if tree.Parent[1] != 0 || tree.Parent[2] != 0 {
		t.Error("s1 and s2 must be the sink's children")
	}
	if tree.Size() != 10 {
		t.Errorf("tree size = %d, want 10", tree.Size())
	}
}

func TestFigure1GroupMasters(t *testing.T) {
	p := Figure1Placement()
	tree := Figure1Tree()
	masters := topo.GroupMaster(tree, p)
	// Room D = {7,8,9}: s7,s8 under s2; s9 under s1 -> master is the sink.
	if masters[Fig1RoomD] != model.Sink {
		t.Errorf("room D master = %d, want sink", masters[Fig1RoomD])
	}
	// Room C = {5,6}: both under s5 -> master s5.
	if masters[Fig1RoomC] != 5 {
		t.Errorf("room C master = %d, want 5", masters[Fig1RoomC])
	}
}

func TestFigure3Fixture(t *testing.T) {
	p := Figure3Placement()
	if got := len(p.SensorNodes()); got != 14 {
		t.Fatalf("sensors = %d, want 14", got)
	}
	if got := len(p.GroupIDs()); got != 6 {
		t.Fatalf("clusters = %d, want 6", got)
	}
	if p.Names[1] != "Auditorium" {
		t.Errorf("cluster 1 = %q", p.Names[1])
	}
	src := Figure3Source(1)
	v := src.Sample(1, 0)
	if v < 0 || v > 100 {
		t.Errorf("figure-3 source out of range: %v", v)
	}
}

func TestPerm(t *testing.T) {
	a, b := Perm(5, 10), Perm(5, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Perm not deterministic")
		}
	}
	seen := map[int]bool{}
	for _, v := range a {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatal("Perm not a permutation")
	}
}

// Figure3Source returns a room-activity source over the Figure-3 clusters.
// Half the venue is active at a time, so a Top-3 answer is substantive.
func Figure3Source(seed int64) *RoomActivity {
	p := Figure3Placement()
	src := NewRoomActivity(seed, p.Groups, 6)
	src.ActiveFrac = 0.5
	return src
}
