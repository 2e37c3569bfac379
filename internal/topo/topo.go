// Package topo provides the physical-layout and routing substrate of the
// simulated sensor network: node placements (grid, uniform random, clustered
// rooms), unit-disk connectivity, and the TAG-style first-heard BFS routing
// tree along which all KSpot communication flows.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"kspot/internal/model"
)

// Point is a 2-D position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Placement positions every node (including the sink, node 0) on the plane
// and assigns each non-sink node to a group (the paper's clusters / rooms).
// The sink carries no group.
type Placement struct {
	Positions map[model.NodeID]Point
	Groups    map[model.NodeID]model.GroupID
	// Names optionally labels groups for display ("Auditorium", "Room A").
	Names map[model.GroupID]string

	// roster caches the sorted id lists: the epoch hot path asks for them
	// several times per epoch and must not re-sort the node set each time.
	roster atomic.Pointer[roster]
}

// roster is the placement's node ids in ascending order, valid while the
// placement still holds the number of positions it was built from.
type roster struct {
	positions int
	nodes     []model.NodeID // sink first
	sensors   []model.NodeID // nodes without the sink
}

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{
		Positions: make(map[model.NodeID]Point),
		Groups:    make(map[model.NodeID]model.GroupID),
		Names:     make(map[model.GroupID]string),
	}
}

// Nodes returns all node ids, sorted, sink first. The slice is cached and
// shared — callers must not modify it. Adding or removing a position is
// noticed on the next call; replacing one node by another at an unchanged
// count is not, so a placement is edited before its first use or rebuilt.
func (p *Placement) Nodes() []model.NodeID { return p.sorted().nodes }

// SensorNodes returns all non-sink node ids, sorted. Cached and shared like
// Nodes.
func (p *Placement) SensorNodes() []model.NodeID { return p.sorted().sensors }

// sorted returns the cached roster, rebuilding it when the number of
// positions changed. Concurrent first calls each build the same lists.
func (p *Placement) sorted() *roster {
	if r := p.roster.Load(); r != nil && r.positions == len(p.Positions) {
		return r
	}
	r := &roster{positions: len(p.Positions), nodes: make([]model.NodeID, 0, len(p.Positions))}
	for id := range p.Positions {
		r.nodes = append(r.nodes, id)
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i] < r.nodes[j] })
	r.sensors = r.nodes
	if len(r.nodes) > 0 && r.nodes[0] == model.Sink {
		r.sensors = r.nodes[1:]
	}
	p.roster.Store(r)
	return r
}

// GroupSize returns the number of sensors assigned to each group. MINT's
// completeness detection (group-master pruning) reads these from the
// scenario configuration, exactly as the paper's Configuration Panel
// declares cluster membership up front.
func (p *Placement) GroupSize() map[model.GroupID]int {
	sizes := make(map[model.GroupID]int)
	for id, g := range p.Groups {
		if id == model.Sink {
			continue
		}
		sizes[g]++
	}
	return sizes
}

// GroupMembers returns the sensors in each group, sorted.
func (p *Placement) GroupMembers() map[model.GroupID][]model.NodeID {
	m := make(map[model.GroupID][]model.NodeID)
	for _, id := range p.SensorNodes() {
		g := p.Groups[id]
		m[g] = append(m[g], id)
	}
	return m
}

// GroupIDs returns the distinct group ids, sorted.
func (p *Placement) GroupIDs() []model.GroupID {
	seen := make(map[model.GroupID]bool)
	for _, id := range p.SensorNodes() {
		seen[p.Groups[id]] = true
	}
	gs := make([]model.GroupID, 0, len(seen))
	for g := range seen {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	return gs
}

// Grid places n sensors on a √n x √n grid with the given spacing, the sink
// at the origin corner. n must be a perfect square.
func Grid(n int, spacing float64) (*Placement, error) {
	side := int(math.Round(math.Sqrt(float64(n))))
	if side*side != n {
		return nil, fmt.Errorf("topo: Grid needs a perfect square, got %d", n)
	}
	p := NewPlacement()
	p.Positions[model.Sink] = Point{0, 0}
	id := model.NodeID(1)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			p.Positions[id] = Point{X: float64(c+1) * spacing, Y: float64(r) * spacing}
			p.Groups[id] = model.GroupID(1) // caller regroups as needed
			id++
		}
	}
	return p, nil
}

// UniformRandom scatters n sensors uniformly over a side x side field, sink
// at the center. Deterministic for a given seed.
func UniformRandom(n int, side float64, seed int64) *Placement {
	rng := rand.New(rand.NewSource(seed))
	p := NewPlacement()
	p.Positions[model.Sink] = Point{side / 2, side / 2}
	for i := 1; i <= n; i++ {
		p.Positions[model.NodeID(i)] = Point{rng.Float64() * side, rng.Float64() * side}
		p.Groups[model.NodeID(i)] = model.GroupID(1)
	}
	return p
}

// Rooms lays out g rooms on a ceil(√g) grid of roomSide-sized rooms, placing
// perRoom sensors uniformly inside each room; room r is group r+1. The sink
// sits at the building's entrance (origin). This is the paper's 4-room
// building generalized.
func Rooms(g, perRoom int, roomSide float64, seed int64) *Placement {
	rng := rand.New(rand.NewSource(seed))
	p := NewPlacement()
	p.Positions[model.Sink] = Point{0, 0}
	cols := int(math.Ceil(math.Sqrt(float64(g))))
	id := model.NodeID(1)
	for room := 0; room < g; room++ {
		gx := float64(room%cols) * roomSide
		gy := float64(room/cols) * roomSide
		group := model.GroupID(room + 1)
		p.Names[group] = fmt.Sprintf("Room %c", 'A'+room%26)
		for s := 0; s < perRoom; s++ {
			p.Positions[id] = Point{
				X: gx + 0.1*roomSide + 0.8*roomSide*rng.Float64(),
				Y: gy + 0.1*roomSide + 0.8*roomSide*rng.Float64(),
			}
			p.Groups[id] = group
			id++
		}
	}
	return p
}

// RegroupRoundRobin reassigns sensors to g groups in node-id order. Useful
// for grid/random placements where groups are logical, not spatial.
func (p *Placement) RegroupRoundRobin(g int) {
	if g < 1 {
		g = 1
	}
	for i, id := range p.SensorNodes() {
		p.Groups[id] = model.GroupID(i%g + 1)
	}
}

// RegroupContiguous assigns sensors to g groups in contiguous id blocks, so
// that groups tend to be spatially coherent on grid layouts.
func (p *Placement) RegroupContiguous(g int) {
	ids := p.SensorNodes()
	if g < 1 {
		g = 1
	}
	per := (len(ids) + g - 1) / g
	for i, id := range ids {
		p.Groups[id] = model.GroupID(i/per + 1)
	}
}
