package topo_test

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/topo"
)

// mapLinks is the link relation as a map of neighbour sets: the form
// DiskLinks and BuildTree used before the relation became sorted lists,
// kept here as the reference they must reproduce.
type mapLinks map[model.NodeID]map[model.NodeID]bool

func (l mapLinks) connect(a, b model.NodeID) {
	for _, e := range [][2]model.NodeID{{a, b}, {b, a}} {
		if l[e[0]] == nil {
			l[e[0]] = make(map[model.NodeID]bool)
		}
		l[e[0]][e[1]] = true
	}
}

// Neighbors returns a node's neighbours, sorted.
func (l mapLinks) Neighbors(a model.NodeID) []model.NodeID {
	ns := make([]model.NodeID, 0, len(l[a]))
	for n := range l[a] {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	return ns
}

// allPairsLinks is the reference DiskLinks must reproduce: the unit-disk
// test on every pair of nodes.
func allPairsLinks(p *topo.Placement, radius float64) mapLinks {
	l := make(mapLinks)
	ids := p.Nodes()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if p.Positions[a].Dist(p.Positions[b]) <= radius {
				l.connect(a, b)
			}
		}
	}
	return l
}

// mapTree is the reference BuildTree must reproduce: TAG's first-heard BFS
// over the map form, with a visited set, a sorted frontier and the
// children sorted afterwards.
func mapTree(p *topo.Placement, links mapLinks) (*topo.Tree, error) {
	t := &topo.Tree{
		Parent:   make(map[model.NodeID]model.NodeID),
		Children: make(map[model.NodeID][]model.NodeID),
		Depth:    make(map[model.NodeID]int),
		Root:     model.Sink,
	}
	t.Depth[model.Sink] = 0
	frontier := []model.NodeID{model.Sink}
	visited := map[model.NodeID]bool{model.Sink: true}
	for len(frontier) > 0 {
		var next []model.NodeID
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for _, u := range frontier {
			for _, v := range links.Neighbors(u) {
				if visited[v] {
					continue
				}
				visited[v] = true
				t.Parent[v] = u
				t.Depth[v] = t.Depth[u] + 1
				t.Children[u] = append(t.Children[u], v)
				next = append(next, v)
			}
		}
		frontier = next
	}
	for _, id := range p.Nodes() {
		if !visited[id] {
			return nil, fmt.Errorf("topo: node %d unreachable from sink", id)
		}
	}
	for _, cs := range t.Children {
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	return t, nil
}

// world is one placement and radio radius the link and tree pins run on.
type world struct {
	name   string
	p      *topo.Placement
	radius float64
}

// atRadius places pairs exactly radius (15) apart — along X, where the band
// ends, and on a diagonal — with several nodes sharing one X.
func atRadius() *topo.Placement {
	edge := topo.NewPlacement()
	for id, pt := range map[model.NodeID]topo.Point{
		0: {X: 0, Y: 0}, 1: {X: 15, Y: 0}, 2: {X: 30, Y: 0}, 3: {X: 9, Y: 12},
		4: {X: 15, Y: 15}, 5: {X: 15, Y: -15}, 6: {X: 30.000001, Y: 0}, 7: {X: 45, Y: 0},
	} {
		edge.Positions[id] = pt
	}
	return edge
}

// maxID chains the sink to the largest node id through one relay, so the
// node-indexed lists reach the end of the id range.
func maxID() *topo.Placement {
	p := topo.NewPlacement()
	p.Positions[0] = topo.Point{X: 0, Y: 0}
	p.Positions[1] = topo.Point{X: 10, Y: 0}
	p.Positions[math.MaxUint16] = topo.Point{X: 20, Y: 0}
	return p
}

// TestBuildTreeMatchesMapReference: over the sorted neighbour lists,
// BuildTree gives the tree the map-based first-heard BFS gives — the same
// parents, children in the same order, depths, post-order and dense level
// numbering — on the committed scale fields, the conference demo, seeded
// uniform fields, the at-radius placement and a chain to the largest id.
func TestBuildTreeMatchesMapReference(t *testing.T) {
	var worlds []world
	for _, n := range []int{1000, 4000} {
		s, err := config.ScaleScenario(n)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{s.Name, s.Placement(), s.Radius})
	}
	demo := config.Figure3Scenario()
	worlds = append(worlds, world{"figure-3", demo.Placement(), demo.Radius}, world{"at-radius", atRadius(), 15}, world{"max-id", maxID(), 15})
	for seed := int64(1); seed <= 4; seed++ {
		worlds = append(worlds, world{fmt.Sprintf("uniform-seed-%d", seed), topo.UniformRandom(400, 100, seed), 8 * float64(seed)})
	}
	for _, w := range worlds {
		got, err := topo.BuildTree(w.p, topo.DiskLinks(w.p, w.radius))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want, err := mapTree(w.p, allPairsLinks(w.p, w.radius))
		if err != nil {
			t.Fatalf("%s: reference: %v", w.name, err)
		}
		if !maps.Equal(got.Parent, want.Parent) || !maps.Equal(got.Depth, want.Depth) || got.Root != want.Root {
			t.Fatalf("%s: parents or depths differ from the reference", w.name)
		}
		if !maps.EqualFunc(got.Children, want.Children, slices.Equal) {
			t.Fatalf("%s: children differ from the reference", w.name)
		}
		if !slices.Equal(got.PostOrder(), want.PostOrder()) {
			t.Fatalf("%s: post-order differs from the reference", w.name)
		}
		gi, wi := got.LevelIndex(), want.LevelIndex()
		if !slices.Equal(gi.Start, wi.Start) || !slices.Equal(gi.Parent, wi.Parent) || !slices.EqualFunc(gi.Levels, wi.Levels, slices.Equal) {
			t.Fatalf("%s: level index differs from the reference", w.name)
		}
	}
}

// TestLinksAndTreeAllocationCeiling bounds the allocations of DiskLinks plus
// BuildTree on the scale-1000 field: a handful of slices for the neighbour
// lists and the BFS, plus the tree's three maps — 65 allocations. The map
// of neighbour sets made 14 625.
func TestLinksAndTreeAllocationCeiling(t *testing.T) {
	s, err := config.ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placement()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := topo.BuildTree(p, topo.DiskLinks(p, s.Radius)); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 72
	if allocs > ceiling {
		t.Fatalf("DiskLinks + BuildTree at scale 1000: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestDiskLinksMatchesAllPairs: the band scan links exactly the pairs the
// all-pairs test links — on the scale-1000 field, on seeded uniform
// fields, and on pairs exactly radius apart (along X, where the band ends,
// and on a diagonal), with several nodes sharing one X.
func TestDiskLinksMatchesAllPairs(t *testing.T) {
	scale, err := config.ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	edge := topo.NewPlacement()
	for id, pt := range map[model.NodeID]topo.Point{
		0: {X: 0, Y: 0}, 1: {X: 15, Y: 0}, 2: {X: 30, Y: 0}, 3: {X: 9, Y: 12},
		4: {X: 15, Y: 15}, 5: {X: 15, Y: -15}, 6: {X: 30.000001, Y: 0}, 7: {X: 45, Y: 0},
	} {
		edge.Positions[id] = pt
	}
	worlds := []struct {
		name   string
		p      *topo.Placement
		radius float64
	}{
		{"scale-1000", scale.Placement(), scale.Radius},
		{"at-radius", edge, 15},
	}
	for seed := int64(1); seed <= 4; seed++ {
		worlds = append(worlds, struct {
			name   string
			p      *topo.Placement
			radius float64
		}{fmt.Sprintf("uniform-seed-%d", seed), topo.UniformRandom(400, 100, seed), 8 * float64(seed)})
	}
	for _, w := range worlds {
		got, want := topo.DiskLinks(w.p, w.radius), allPairsLinks(w.p, w.radius)
		links := 0
		for _, id := range w.p.Nodes() {
			if g, x := got.Neighbors(id), want.Neighbors(id); !slices.Equal(g, x) {
				t.Fatalf("%s: node %d linked to %v, all-pairs links %v", w.name, id, g, x)
			}
			links += len(want.Neighbors(id))
		}
		if links == 0 {
			t.Fatalf("%s: no links at all", w.name)
		}
	}
	if edge := topo.DiskLinks(edge, 15); !slices.Equal(edge.Neighbors(0), []model.NodeID{1, 3}) || !slices.Equal(edge.Neighbors(2), []model.NodeID{1, 6, 7}) {
		t.Fatalf("pairs exactly radius apart: 0 ~ %v, 2 ~ %v", edge.Neighbors(0), edge.Neighbors(2))
	}
}
