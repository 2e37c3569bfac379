package topo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"kspot/internal/model"
)

// Links is the symmetric connectivity relation: which pairs of nodes can
// hear each other. It is stored in compressed-sparse-row form: node id's
// neighbours are adj[start[id]:start[id+1]], in ascending id order. It is
// read once, to build the routing tree, and not kept afterwards.
type Links struct {
	start []int
	adj   []model.NodeID
}

// Neighbors returns a node's neighbors in ascending id order. The slice is
// shared and read-only; an id the relation does not know has none.
func (l *Links) Neighbors(a model.NodeID) []model.NodeID {
	if int(a)+1 >= len(l.start) {
		return nil
	}
	lo, hi := l.start[a], l.start[int(a)+1]
	return l.adj[lo:hi:hi]
}

// DiskLinks builds unit-disk connectivity: two nodes are linked iff their
// distance is at most radius (the MICA2's usable indoor range for a given
// power setting). It sorts the nodes by X and tests only the pairs inside
// one band of width radius: a pair further apart in X is further apart
// than radius, so the links are those of the all-pairs test.
//
// The band scan finds the pairs in X order. A counting pass lays them out
// per node, and a transpose — visiting the nodes in ascending id and
// appending each to its neighbours' lists — leaves every list ascending
// without a sort.
func DiskLinks(p *Placement, radius float64) *Links {
	type node struct {
		id model.NodeID
		at Point
	}
	ids := p.Nodes()
	nodes := make([]node, len(ids))
	for i, id := range ids {
		nodes[i] = node{id, p.Positions[id]}
	}
	slices.SortStableFunc(nodes, func(a, b node) int { return cmp.Compare(a.at.X, b.at.X) })
	size := 0
	if len(ids) > 0 {
		size = int(ids[len(ids)-1]) + 1
	}
	start := make([]int, size+1) // degrees first, at start[id+1]
	var pairs [][2]model.NodeID
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if b.at.X-a.at.X > radius {
				break
			}
			if a.at.Dist(b.at) <= radius {
				pairs = append(pairs, [2]model.NodeID{a.id, b.id})
				start[int(a.id)+1]++
				start[int(b.id)+1]++
			}
		}
	}
	for i := 1; i <= size; i++ {
		start[i] += start[i-1]
	}
	at := make([]int, size)
	copy(at, start)
	scan := make([]model.NodeID, 2*len(pairs)) // per node, in scan order
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		scan[at[a]], scan[at[b]] = b, a
		at[a]++
		at[b]++
	}
	copy(at, start)
	adj := make([]model.NodeID, len(scan))
	for u := range size {
		for _, v := range scan[start[u]:start[u+1]] {
			adj[at[v]] = model.NodeID(u)
			at[v]++
		}
	}
	return &Links{start: start, adj: adj}
}

// Tree is the TAG-style routing tree rooted at the sink. Every KSpot message
// travels along tree edges: views and answers up, queries and γ beacons down.
type Tree struct {
	Parent   map[model.NodeID]model.NodeID
	Children map[model.NodeID][]model.NodeID
	Depth    map[model.NodeID]int
	Root     model.NodeID

	// post/pre cache the traversal orders: the epoch hot path walks the
	// tree once per sweep and must not re-sort the node set every time.
	post, pre []model.NodeID

	// levels caches the per-depth slices of PostOrder (levels[d] holds the
	// depth-d nodes in ascending id order) for the level-synchronous sweep,
	// and index the dense numbering built over them.
	levels [][]model.NodeID
	index  *LevelIndex

	// parentOf caches Parent densely: parentOf[id] is the node's parent, or
	// -1 when it has none. Every transmission up the tree reads it, so the
	// hot path indexes a slice where it would otherwise hash the node id.
	parentOf []int32
}

// LevelIndex numbers the tree's nodes densely, root first and level by
// level: the node Levels[d][j] has position Start[d]+j. A sweep lays its
// per-node scratch out by position, so the epoch hot path indexes slices
// where it would otherwise hash node ids. Shared and read-only.
type LevelIndex struct {
	Levels [][]model.NodeID // Tree.Levels()
	Start  []int            // position of each level's first node
	Parent []int32          // position of each node's tree parent; -1 for the root
}

// BuildTree runs the first-heard BFS tree construction of TAG: the sink
// broadcasts a beacon; each node adopts as parent the first (lowest-id at
// equal depth) neighbor it hears the beacon from. Nodes unreachable from the
// sink are reported as an error — a deployment bug the Configuration Panel
// would surface.
func BuildTree(p *Placement, links *Links) (*Tree, error) {
	ids := p.Nodes()
	size := max(len(links.start)-1, int(model.Sink)+1)
	if len(ids) > 0 {
		size = max(size, int(ids[len(ids)-1])+1)
	}
	t := &Tree{
		Parent:   make(map[model.NodeID]model.NodeID, len(ids)),
		Children: make(map[model.NodeID][]model.NodeID),
		Depth:    make(map[model.NodeID]int, len(ids)),
		Root:     model.Sink,
	}
	t.Depth[model.Sink] = 0
	visited := make([]bool, size)
	visited[model.Sink] = true
	// kids holds every node's children, contiguous per parent: a node
	// claims all of its children while the BFS visits it.
	kids := make([]model.NodeID, 0, len(ids))
	frontier, next := []model.NodeID{model.Sink}, []model.NodeID(nil)
	for depth := 1; len(frontier) > 0; depth++ {
		// Deterministic order: lower-id nodes claim children first, which is
		// the "first heard" rule with ties broken by id. Neighbours come in
		// ascending id, so each node's children do too.
		slices.Sort(frontier)
		next = next[:0]
		for _, u := range frontier {
			first := len(kids)
			for _, v := range links.Neighbors(u) {
				if visited[v] {
					continue
				}
				visited[v] = true
				t.Parent[v] = u
				t.Depth[v] = depth
				kids = append(kids, v)
			}
			if n := len(kids); n > first {
				t.Children[u] = kids[first:n:n]
				next = append(next, kids[first:n]...)
			}
		}
		frontier, next = next, frontier
	}
	for _, id := range ids {
		if !visited[id] {
			return nil, fmt.Errorf("topo: node %d unreachable from sink", id)
		}
	}
	return t, nil
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int { return len(t.Depth) }

// MaxDepth returns the height of the tree.
func (t *Tree) MaxDepth() int {
	m := 0
	for _, d := range t.Depth {
		if d > m {
			m = d
		}
	}
	return m
}

// PostOrder returns nodes deepest-first (children strictly before parents):
// the order in which the epoch up-sweep processes transmissions, mirroring
// TAG's depth-indexed TDMA schedule. The slice is cached and shared —
// callers must not modify it.
func (t *Tree) PostOrder() []model.NodeID {
	if t.post == nil {
		ids := make([]model.NodeID, 0, len(t.Depth))
		for id := range t.Depth {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if t.Depth[ids[i]] != t.Depth[ids[j]] {
				return t.Depth[ids[i]] > t.Depth[ids[j]]
			}
			return ids[i] < ids[j]
		})
		t.post = ids
	}
	return t.post
}

// PreOrder returns nodes shallowest-first (parents before children): the
// order of the downstream beacon sweep. The slice is cached and shared —
// callers must not modify it.
func (t *Tree) PreOrder() []model.NodeID {
	if t.pre == nil {
		post := t.PostOrder()
		ids := make([]model.NodeID, len(post))
		for i, id := range post {
			ids[len(ids)-1-i] = id
		}
		t.pre = ids
	}
	return t.pre
}

// Levels returns the nodes grouped by depth: Levels()[d] holds every
// depth-d node in ascending id order, so concatenating the levels from
// deepest to shallowest reproduces PostOrder exactly. This is the unit of
// work of the level-synchronous sweep: all nodes within one level are
// independent (their receivers live one level up), so they may be computed
// concurrently as long as their transmissions commit in PostOrder position.
// The slices are cached and shared — callers must not modify them.
func (t *Tree) Levels() [][]model.NodeID {
	if t.levels == nil {
		post := t.PostOrder()
		levels := make([][]model.NodeID, t.MaxDepth()+1)
		for _, id := range post {
			d := t.Depth[id]
			levels[d] = append(levels[d], id)
		}
		t.levels = levels
	}
	return t.levels
}

// LevelIndex returns the dense numbering over Levels. Like the traversal
// orders it is built on first use and cached.
func (t *Tree) LevelIndex() *LevelIndex {
	if t.index == nil {
		levels := t.Levels()
		idx := &LevelIndex{Levels: levels, Start: make([]int, len(levels)), Parent: make([]int32, 0, len(t.Depth))}
		pos := make(map[model.NodeID]int32, len(t.Depth))
		for d, lv := range levels {
			idx.Start[d] = len(idx.Parent)
			for _, id := range lv {
				pos[id] = int32(len(idx.Parent))
				parent := int32(-1)
				if d > 0 {
					parent = pos[t.Parent[id]] // one level up: already numbered
				}
				idx.Parent = append(idx.Parent, parent)
			}
		}
		t.index = idx
	}
	return t.index
}

// ParentOf returns a node's tree parent — Parent[id] read through a table
// indexed by node id, built on first use and cached. Ids outside the tree
// (the root included) have no parent.
func (t *Tree) ParentOf(id model.NodeID) (model.NodeID, bool) {
	if t.parentOf == nil {
		size := 0
		for n := range t.Parent {
			if int(n) >= size {
				size = int(n) + 1
			}
		}
		t.parentOf = make([]int32, size)
		for i := range t.parentOf {
			t.parentOf[i] = -1
		}
		for n, p := range t.Parent {
			t.parentOf[n] = int32(p)
		}
	}
	if int(id) >= len(t.parentOf) || t.parentOf[id] < 0 {
		return 0, false
	}
	return model.NodeID(t.parentOf[id]), true
}

// PathToRoot returns the nodes from n up to the root, inclusive of both.
func (t *Tree) PathToRoot(n model.NodeID) []model.NodeID {
	path := []model.NodeID{n}
	for n != t.Root {
		p, ok := t.Parent[n]
		if !ok {
			break
		}
		path = append(path, p)
		n = p
	}
	return path
}

// Validate checks structural invariants: single root, acyclic parent chains,
// child depth = parent depth + 1, children lists consistent with parents.
func (t *Tree) Validate() error {
	for n, p := range t.Parent {
		if t.Depth[n] != t.Depth[p]+1 {
			return fmt.Errorf("topo: node %d depth %d but parent %d depth %d", n, t.Depth[n], p, t.Depth[p])
		}
		found := false
		for _, c := range t.Children[p] {
			if c == n {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("topo: node %d missing from parent %d children", n, p)
		}
	}
	for n := range t.Depth {
		seen := map[model.NodeID]bool{}
		for cur := n; cur != t.Root; {
			if seen[cur] {
				return fmt.Errorf("topo: cycle through node %d", cur)
			}
			seen[cur] = true
			p, ok := t.Parent[cur]
			if !ok {
				return fmt.Errorf("topo: node %d has no path to root", n)
			}
			cur = p
		}
	}
	return nil
}

// GroupMaster returns, for each group, the lowest node in the tree that has
// the entire group in its subtree (the group's LCA). MINT's completeness
// pruning activates at and above this node.
func GroupMaster(t *Tree, p *Placement) map[model.GroupID]model.NodeID {
	members := p.GroupMembers()
	masters := make(map[model.GroupID]model.NodeID, len(members))
	for g, ms := range members {
		if len(ms) == 0 {
			continue
		}
		lca := ms[0]
		for _, m := range ms[1:] {
			lca = lowestCommonAncestor(t, lca, m)
		}
		masters[g] = lca
	}
	return masters
}

func lowestCommonAncestor(t *Tree, a, b model.NodeID) model.NodeID {
	da, db := t.Depth[a], t.Depth[b]
	for da > db {
		a = t.Parent[a]
		da--
	}
	for db > da {
		b = t.Parent[b]
		db--
	}
	for a != b {
		a = t.Parent[a]
		b = t.Parent[b]
	}
	return a
}
