package topo

import (
	"math"
	"testing"

	"kspot/internal/model"
)

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := (Point{1, 1}).Dist(Point{1, 1}); d != 0 {
		t.Errorf("Dist = %v, want 0", d)
	}
}

func TestGrid(t *testing.T) {
	p, err := Grid(9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.SensorNodes()); got != 9 {
		t.Fatalf("sensors = %d, want 9", got)
	}
	if _, ok := p.Positions[model.Sink]; !ok {
		t.Fatal("sink not placed")
	}
	if _, err := Grid(10, 1); err == nil {
		t.Error("Grid(10) should fail: not a perfect square")
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	a := UniformRandom(20, 100, 7)
	b := UniformRandom(20, 100, 7)
	for _, id := range a.Nodes() {
		if a.Positions[id] != b.Positions[id] {
			t.Fatalf("node %d position differs across same-seed runs", id)
		}
	}
	c := UniformRandom(20, 100, 8)
	same := true
	for _, id := range a.SensorNodes() {
		if a.Positions[id] != c.Positions[id] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestRooms(t *testing.T) {
	p := Rooms(4, 3, 20, 1)
	if got := len(p.SensorNodes()); got != 12 {
		t.Fatalf("sensors = %d, want 12", got)
	}
	sizes := p.GroupSize()
	if len(sizes) != 4 {
		t.Fatalf("groups = %d, want 4", len(sizes))
	}
	for g, n := range sizes {
		if n != 3 {
			t.Errorf("group %d size = %d, want 3", g, n)
		}
	}
	if p.Names[1] != "Room A" {
		t.Errorf("group 1 name = %q", p.Names[1])
	}
	// Sensors of room 1 must be inside room 1's square.
	for _, id := range p.GroupMembers()[1] {
		pos := p.Positions[id]
		if pos.X < 0 || pos.X > 20 || pos.Y < 0 || pos.Y > 20 {
			t.Errorf("node %d of room 1 at %+v outside its room", id, pos)
		}
	}
}

func TestRegroup(t *testing.T) {
	p := UniformRandom(10, 100, 1)
	p.RegroupRoundRobin(3)
	sizes := p.GroupSize()
	if len(sizes) != 3 {
		t.Fatalf("round robin groups = %d", len(sizes))
	}
	p.RegroupContiguous(5)
	if got := len(p.GroupSize()); got != 5 {
		t.Fatalf("contiguous groups = %d", got)
	}
	ids := p.GroupIDs()
	if len(ids) != 5 || ids[0] != 1 {
		t.Errorf("GroupIDs = %v", ids)
	}
}

func TestDiskLinksSymmetric(t *testing.T) {
	p := UniformRandom(30, 100, 3)
	l := DiskLinks(p, 30)
	for _, a := range p.Nodes() {
		for _, b := range l.Neighbors(a) {
			if !l.Connected(b, a) {
				t.Fatalf("link %d-%d not symmetric", a, b)
			}
			if p.Positions[a].Dist(p.Positions[b]) > 30 {
				t.Fatalf("link %d-%d exceeds radius", a, b)
			}
		}
	}
	if l.Connected(1, 1) {
		t.Error("self link")
	}
}

func buildConnected(t *testing.T, n int, seed int64) (*Placement, *Links, *Tree) {
	t.Helper()
	p := UniformRandom(n, 100, seed)
	l := DiskLinks(p, 35)
	tree, err := BuildTree(p, l)
	if err != nil {
		t.Skipf("random topology disconnected (seed %d): %v", seed, err)
	}
	return p, l, tree
}

func TestBuildTreeInvariants(t *testing.T) {
	p, _, tree := buildConnected(t, 40, 11)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != len(p.Nodes()) {
		t.Fatalf("tree size %d, nodes %d", tree.Size(), len(p.Nodes()))
	}
	if tree.Depth[model.Sink] != 0 {
		t.Fatal("sink depth nonzero")
	}
}

func TestBuildTreeDisconnected(t *testing.T) {
	p := NewPlacement()
	p.Positions[model.Sink] = Point{0, 0}
	p.Positions[1] = Point{1000, 1000}
	p.Groups[1] = 1
	l := DiskLinks(p, 10)
	if _, err := BuildTree(p, l); err == nil {
		t.Fatal("disconnected topology must fail tree construction")
	}
}

func TestPostPreOrder(t *testing.T) {
	_, _, tree := buildConnected(t, 40, 11)
	post := tree.PostOrder()
	seen := map[model.NodeID]bool{}
	for _, n := range post {
		for _, c := range tree.Children[n] {
			if !seen[c] {
				t.Fatalf("post-order: child %d of %d not yet seen", c, n)
			}
		}
		seen[n] = true
	}
	pre := tree.PreOrder()
	if pre[0] != model.Sink {
		t.Fatal("pre-order must start at sink")
	}
	if post[len(post)-1] != model.Sink {
		t.Fatal("post-order must end at sink")
	}
}

func TestLevelsMatchPostOrder(t *testing.T) {
	_, _, tree := buildConnected(t, 40, 11)
	levels := tree.Levels()
	if len(levels) != tree.MaxDepth()+1 {
		t.Fatalf("levels = %d, want %d", len(levels), tree.MaxDepth()+1)
	}
	// Concatenating deepest→shallowest must reproduce PostOrder exactly:
	// that identity is what lets the parallel sweep commit level by level
	// in id order and still match the sequential run byte for byte.
	var cat []model.NodeID
	for d := len(levels) - 1; d >= 0; d-- {
		for i, id := range levels[d] {
			if tree.Depth[id] != d {
				t.Fatalf("node %d in level %d has depth %d", id, d, tree.Depth[id])
			}
			if i > 0 && levels[d][i-1] >= id {
				t.Fatalf("level %d not id-sorted at %d", d, i)
			}
		}
		cat = append(cat, levels[d]...)
	}
	post := tree.PostOrder()
	if len(cat) != len(post) {
		t.Fatalf("levels hold %d nodes, post-order %d", len(cat), len(post))
	}
	for i := range cat {
		if cat[i] != post[i] {
			t.Fatalf("levels concat diverges from post-order at %d: %d vs %d", i, cat[i], post[i])
		}
	}
	// The dense numbering runs root-first over the same levels and maps
	// every position to its tree parent's position.
	idx := tree.LevelIndex()
	var byPos []model.NodeID
	for d, lv := range levels {
		if idx.Start[d] != len(byPos) {
			t.Fatalf("level %d starts at position %d, want %d", d, idx.Start[d], len(byPos))
		}
		byPos = append(byPos, lv...)
	}
	if len(idx.Parent) != len(byPos) || idx.Parent[0] != -1 {
		t.Fatalf("index numbers %d nodes (root parent %d), want %d (-1)", len(idx.Parent), idx.Parent[0], len(byPos))
	}
	for pos, id := range byPos[1:] {
		if got := byPos[idx.Parent[pos+1]]; got != tree.Parent[id] {
			t.Fatalf("position %d (node %d): indexed parent %d, tree parent %d", pos+1, id, got, tree.Parent[id])
		}
	}
}

func TestSubtreeAndPath(t *testing.T) {
	_, _, tree := buildConnected(t, 40, 11)
	whole := tree.Subtree(model.Sink)
	if len(whole) != tree.Size() {
		t.Fatalf("sink subtree = %d, want %d", len(whole), tree.Size())
	}
	for n := range tree.Depth {
		path := tree.PathToRoot(n)
		if path[len(path)-1] != model.Sink {
			t.Fatalf("path from %d does not reach sink: %v", n, path)
		}
		if len(path) != tree.Depth[n]+1 {
			t.Fatalf("path length %d, depth %d", len(path), tree.Depth[n])
		}
	}
}

func TestGroupMasterFigure1(t *testing.T) {
	// Build the Figure 1 tree by hand:
	// sink -> s1, s2; s1 -> s3(?); use a simple chain-ish topology instead:
	// sink(0) -- 1 -- {3,4}; sink -- 2 -- {5}; groups: g1={3,4}, g2={5},
	// g3={1,2}. Master of g1 is 1; master of g2 is 5's LCA = 5... LCA of a
	// single-member group is the member itself.
	p := NewPlacement()
	pts := map[model.NodeID]Point{0: {0, 0}, 1: {10, 0}, 2: {0, 10}, 3: {20, 0}, 4: {10, 10}, 5: {0, 20}}
	for id, pt := range pts {
		p.Positions[id] = pt
	}
	p.Groups[3] = 1
	p.Groups[4] = 1
	p.Groups[5] = 2
	p.Groups[1] = 3
	p.Groups[2] = 3
	l := NewLinks()
	l.Connect(0, 1)
	l.Connect(0, 2)
	l.Connect(1, 3)
	l.Connect(1, 4)
	l.Connect(2, 5)
	tree, err := BuildTree(p, l)
	if err != nil {
		t.Fatal(err)
	}
	masters := GroupMaster(tree, p)
	if masters[1] != 1 {
		t.Errorf("master of g1 = %d, want 1", masters[1])
	}
	if masters[2] != 5 {
		t.Errorf("master of g2 = %d, want 5", masters[2])
	}
	if masters[3] != 0 {
		t.Errorf("master of g3 = %d, want sink (LCA of 1 and 2)", masters[3])
	}
}

func TestMaxDepth(t *testing.T) {
	_, _, tree := buildConnected(t, 40, 11)
	md := tree.MaxDepth()
	for _, d := range tree.Depth {
		if d > md {
			t.Fatalf("depth %d exceeds MaxDepth %d", d, md)
		}
	}
	if md <= 0 {
		t.Fatalf("MaxDepth = %d", md)
	}
}

func TestGroupMasterAboveCompletesValues(t *testing.T) {
	p := Rooms(4, 2, 15, 9)
	l := DiskLinks(p, 25)
	tree, err := BuildTree(p, l)
	if err != nil {
		t.Skip("rooms topology disconnected at this radius")
	}
	masters := GroupMaster(tree, p)
	members := p.GroupMembers()
	for g, m := range masters {
		sub := tree.Subtree(m)
		for _, member := range members[g] {
			if !sub[member] {
				t.Errorf("group %d master %d does not cover member %d", g, m, member)
			}
		}
	}
}

func TestLifetimeHelperNaN(t *testing.T) {
	// Guard: Dist of identical points is exactly 0, never NaN.
	if v := (Point{3, 3}).Dist(Point{3, 3}); math.IsNaN(v) {
		t.Fatal("Dist produced NaN")
	}
}

// The sorted rosters are cached, not rebuilt per call — and a node added or
// removed after the first call is still seen.
func TestPlacementRosterCacheSeesEdits(t *testing.T) {
	p := UniformRandom(5, 10, 1)
	first := p.SensorNodes()
	if again := p.SensorNodes(); &again[0] != &first[0] {
		t.Fatal("a repeated SensorNodes call rebuilt the roster")
	}
	p.Positions[9] = Point{X: 1}
	if got := p.Nodes(); len(got) != 7 || got[0] != model.Sink || got[6] != 9 {
		t.Fatalf("Nodes after adding node 9 = %v", got)
	}
	if got := p.SensorNodes(); len(got) != 6 || got[5] != 9 {
		t.Fatalf("SensorNodes after adding node 9 = %v", got)
	}
	delete(p.Positions, 2)
	if got := p.SensorNodes(); len(got) != 5 || got[1] != 3 {
		t.Fatalf("SensorNodes after removing node 2 = %v", got)
	}
}

// ParentOf reads Parent through the dense table.
func TestParentOfMatchesParent(t *testing.T) {
	p, err := Grid(16, 10)
	if err != nil {
		t.Fatal(err)
	}
	links := DiskLinks(p, 15)
	tree, err := BuildTree(p, links)
	if err != nil {
		t.Fatal(err)
	}
	for id := model.NodeID(0); id < 20; id++ { // past the largest id too
		want, ok := tree.Parent[id]
		if got, gotOK := tree.ParentOf(id); got != want || gotOK != ok {
			t.Fatalf("ParentOf(%d) = %d,%v, Parent has %d,%v", id, got, gotOK, want, ok)
		}
	}
}

// Connected reports whether a and b share a link.
func (l *Links) Connected(a, b model.NodeID) bool { return l.adj[a][b] }

// Subtree returns the set of nodes in the subtree rooted at n (inclusive).
func (t *Tree) Subtree(n model.NodeID) map[model.NodeID]bool {
	out := map[model.NodeID]bool{n: true}
	stack := []model.NodeID{n}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Children[u] {
			out[c] = true
			stack = append(stack, c)
		}
	}
	return out
}
