package topo_test

import (
	"fmt"
	"slices"
	"testing"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/topo"
)

// allPairsLinks is the reference DiskLinks must reproduce: the unit-disk
// test on every pair of nodes.
func allPairsLinks(p *topo.Placement, radius float64) *topo.Links {
	l := topo.NewLinks()
	ids := p.Nodes()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if p.Positions[a].Dist(p.Positions[b]) <= radius {
				l.Connect(a, b)
			}
		}
	}
	return l
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
