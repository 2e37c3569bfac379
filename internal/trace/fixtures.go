package trace

import (
	"kspot/internal/model"
	"kspot/internal/topo"
)

// This file pins down the paper's two worked scenarios as executable
// fixtures: Figure 1 (9 sensors, 4 rooms, the §III-A counterexample) and
// Figure 3 (the 14-node, 6-cluster conference demo).

// Figure-1 room groups.
const (
	Fig1RoomA model.GroupID = 1
	Fig1RoomB model.GroupID = 2
	Fig1RoomC model.GroupID = 3
	Fig1RoomD model.GroupID = 4
)

// Figure1Placement reconstructs the deployment of the paper's Figure 1:
// nine sensors s1..s9 in four rooms A..D of a 2x2-room building, sink s0 at
// the building entrance. Room assignment follows the figure's labels:
// A={s2,s3}, B={s1,s4}, C={s5,s6}, D={s7,s8,s9}.
func Figure1Placement() *topo.Placement {
	p := topo.NewPlacement()
	// 2x2 rooms of 10x10 m: A top-left, B top-right, C bottom-left,
	// D bottom-right. Positions chosen so the disk graph (radius 7 m)
	// yields the in-network tree drawn in the figure.
	p.Positions[model.Sink] = topo.Point{X: 10, Y: -2}
	pos := map[model.NodeID]topo.Point{
		1: {X: 6, Y: 2},   // B
		2: {X: 14, Y: 2},  // A
		3: {X: 16, Y: 7},  // A
		4: {X: 4, Y: 7},   // B
		5: {X: 3, Y: 12},  // C
		6: {X: 6, Y: 16},  // C
		7: {X: 16, Y: 12}, // D
		8: {X: 17, Y: 17}, // D
		9: {X: 12, Y: 12}, // D (routes via s4's side in the figure)
	}
	for id, pt := range pos {
		p.Positions[id] = pt
	}
	groups := map[model.NodeID]model.GroupID{
		1: Fig1RoomB, 2: Fig1RoomA, 3: Fig1RoomA, 4: Fig1RoomB,
		5: Fig1RoomC, 6: Fig1RoomC, 7: Fig1RoomD, 8: Fig1RoomD, 9: Fig1RoomD,
	}
	for id, g := range groups {
		p.Groups[id] = g
	}
	p.Names[Fig1RoomA] = "Room A"
	p.Names[Fig1RoomB] = "Room B"
	p.Names[Fig1RoomC] = "Room C"
	p.Names[Fig1RoomD] = "Room D"
	return p
}

// Figure1Tree builds the exact routing tree drawn in Figure 1's right-hand
// side: s0←{s1,s2}; s1←{s3?}. The figure's view tree is:
//
//	     s0
//	    /  \
//	  s1    s2
//	 /  \     \
//	s3   s4    s7
//	    /  \     \
//	  s5    s9    s8
//	  |
//	  s6
//
// reproduced here literally so tests can assert against the paper's own
// aggregation structure (s4 hears s9's (D,39) — the tuple the naive
// strategy wrongly discards).
func Figure1Tree() *topo.Tree {
	t := &topo.Tree{
		Parent:   make(map[model.NodeID]model.NodeID),
		Children: make(map[model.NodeID][]model.NodeID),
		Depth:    make(map[model.NodeID]int),
		Root:     model.Sink,
	}
	edges := []struct{ child, parent model.NodeID }{
		{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 4}, {9, 4}, {6, 5}, {7, 2}, {8, 7},
	}
	t.Depth[model.Sink] = 0
	for _, e := range edges {
		t.Parent[e.child] = e.parent
		t.Children[e.parent] = append(t.Children[e.parent], e.child)
	}
	var fill func(n model.NodeID, d int)
	fill = func(n model.NodeID, d int) {
		t.Depth[n] = d
		for _, c := range t.Children[n] {
			fill(c, d+1)
		}
	}
	fill(model.Sink, 0)
	return t
}

// Figure1Values returns the exact sound levels from the figure's labels.
func Figure1Values() map[model.NodeID]model.Value {
	return map[model.NodeID]model.Value{
		1: 40, 2: 74, 3: 75, 4: 42, 5: 75, 6: 75, 7: 78, 8: 75, 9: 39,
	}
}

// Figure1Source is a fixture replaying Figure1Values at every epoch.
func Figure1Source() *Fixture {
	vals := Figure1Values()
	m := make(map[model.NodeID][]model.Value, len(vals))
	for n, v := range vals {
		m[n] = []model.Value{v}
	}
	return NewFixture(m)
}

// Figure1Answers returns the correct ranking from the figure's sink view:
// (C,75), (A,74.5), (D,64), (B,41).
func Figure1Answers() []model.Answer {
	return []model.Answer{
		{Group: Fig1RoomC, Score: 75},
		{Group: Fig1RoomA, Score: 74.5},
		{Group: Fig1RoomD, Score: 64},
		{Group: Fig1RoomB, Score: 41},
	}
}

// Figure3Placement reconstructs the demo scenario of Figure 3: a Top-3
// query over a 14-node network organized in 6 clusters (Auditorium,
// Conference Rooms 1-2, Coffee Stations 1-2, Lobby). The clusters line a
// conference-center corridor away from the registration desk (the sink),
// so the routing tree is several hops deep — the multihop regime where
// in-network pruning pays.
func Figure3Placement() *topo.Placement {
	p := topo.NewPlacement()
	p.Positions[model.Sink] = topo.Point{X: 0, Y: 0}
	clusters := []struct {
		name    string
		members int
		origin  topo.Point
	}{
		{"Auditorium", 4, topo.Point{X: 9, Y: 1}},
		{"Conference Room 1", 3, topo.Point{X: 18, Y: 5}},
		{"Conference Room 2", 2, topo.Point{X: 27, Y: 9}},
		{"Coffee Station 1", 2, topo.Point{X: 36, Y: 13}},
		{"Coffee Station 2", 2, topo.Point{X: 45, Y: 17}},
		{"Lobby", 1, topo.Point{X: 54, Y: 21}},
	}
	id := model.NodeID(1)
	for ci, c := range clusters {
		g := model.GroupID(ci + 1)
		p.Names[g] = c.name
		for m := 0; m < c.members; m++ {
			p.Positions[id] = topo.Point{X: c.origin.X + float64(m)*3, Y: c.origin.Y + float64(m%2)*2}
			p.Groups[id] = g
			id++
		}
	}
	return p
}
