// Package config reads and writes KSpot scenario files — the JSON artifact
// of the paper's Configuration Panel, which "enables the user to load a new
// scenario from a configuration file or to create a new scenario". A
// scenario declares the deployment (node positions), the clustering (which
// nodes share a physical region), radio parameters and the workload.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

// Node declares one sensor's placement and cluster.
type Node struct {
	ID      uint16  `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Cluster uint16  `json:"cluster"`
}

// Cluster names a physical region ("Auditorium", "Coffee Station 1").
type Cluster struct {
	ID   uint16 `json:"id"`
	Name string `json:"name"`
}

// Workload selects and parameterizes a trace source.
type Workload struct {
	// Kind: rooms | diurnal | walk | zipf | uniform | fixture.
	Kind string  `json:"kind"`
	Seed int64   `json:"seed"`
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
	// Period, for rooms: epochs between activity changes.
	Period uint32 `json:"period,omitempty"`
	// ActiveFrac, for rooms: fraction of rooms active at a time.
	ActiveFrac float64 `json:"active_frac,omitempty"`
	// Fixture values, keyed by node id, for kind=fixture.
	Fixture map[string][]float64 `json:"fixture,omitempty"`
}

// Shard assigns a subset of the scenario's clusters to one federated
// shard network. A sharded deployment runs each shard as its own radio
// network — own base station, own routing tree, own link layer — and
// merges shard-local TOP-K views at a coordinator tier (see
// internal/topk/fed). Clusters are physical regions, so every cluster
// lives wholly inside one shard; the shards block must partition the
// cluster list exactly.
type Shard struct {
	// Name labels the shard in panels and stats (default "shard-<i>").
	Name string `json:"name,omitempty"`
	// Clusters lists the cluster ids deployed in this shard.
	Clusters []uint16 `json:"clusters"`
}

// Scenario is a complete deployment description.
type Scenario struct {
	Name     string    `json:"name"`
	SinkX    float64   `json:"sink_x"`
	SinkY    float64   `json:"sink_y"`
	Radius   float64   `json:"radio_radius"`
	Payload  int       `json:"payload_bytes,omitempty"`
	Budget   float64   `json:"budget_joules,omitempty"`
	Nodes    []Node    `json:"nodes"`
	Clusters []Cluster `json:"clusters"`
	Workload Workload  `json:"workload"`
	// Parents, when present, pins the routing tree explicitly (keyed by
	// node id, value = parent id) instead of deriving it from radio
	// connectivity — how the paper's Figure 1 draws its exact tree.
	Parents map[string]uint16 `json:"parents,omitempty"`
	// Faults, when present, declares the deployment's unreliable-world
	// environment: seeded deterministic link loss (Bernoulli,
	// distance-weighted or Gilbert-Elliott bursts), frame duplication and
	// delay, and scheduled node churn. It replays identically at every
	// Parallel bound. The scenarios/lossy-*.json family
	// exercises it; kspot.Open arms it. It is the scenario's only fault
	// input.
	Faults *faults.Config `json:"faults,omitempty"`
	// Shards, when present, declares a federated deployment: the cluster
	// list is partitioned into shard networks that run the per-shard
	// operator independently and merge answers at a coordinator tier.
	// ShardScenarios materializes the per-shard sub-deployments.
	Shards []Shard `json:"shards,omitempty"`
}

// Validate checks structural consistency. Errors name the offending field
// path (e.g. "shards[1].clusters[0]: unknown cluster 9") so a hand-edited
// Configuration Panel file points at its own mistake.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("config: name: missing (scenario needs a name)")
	}
	if s.Radius <= 0 {
		return fmt.Errorf("config: radio_radius: must be positive, got %v", s.Radius)
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("config: nodes: empty (scenario has no nodes)")
	}
	clusters := make(map[uint16]bool, len(s.Clusters))
	for i, c := range s.Clusters {
		if clusters[c.ID] {
			return fmt.Errorf("config: clusters[%d].id: duplicate cluster id %d", i, c.ID)
		}
		clusters[c.ID] = true
	}
	seen := make(map[uint16]bool, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.ID == 0 {
			return fmt.Errorf("config: nodes[%d].id: 0 is reserved for the sink", i)
		}
		if seen[n.ID] {
			return fmt.Errorf("config: nodes[%d].id: duplicate node id %d", i, n.ID)
		}
		seen[n.ID] = true
		if len(s.Clusters) > 0 && !clusters[n.Cluster] {
			return fmt.Errorf("config: nodes[%d].cluster: unknown cluster %d", i, n.Cluster)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("config: faults: %w", err)
		}
		for i, ev := range s.Faults.Churn {
			if !seen[uint16(ev.Node)] {
				return fmt.Errorf("config: faults.churn[%d].node: unknown node %d", i, ev.Node)
			}
		}
	}
	return s.validateShards(clusters)
}

// validateShards checks the federation block: the shards must partition
// the cluster list exactly (every cluster in exactly one shard), every
// shard must deploy at least one node, and a pinned routing tree cannot be
// split (its edges may cross shard boundaries).
func (s *Scenario) validateShards(clusters map[uint16]bool) error {
	if len(s.Shards) == 0 {
		return nil
	}
	if len(s.Clusters) == 0 {
		return fmt.Errorf("config: shards: sharding needs a clusters list to partition")
	}
	if len(s.Parents) > 0 {
		return fmt.Errorf("config: shards: cannot be combined with a pinned parents tree")
	}
	nodesPerCluster := make(map[uint16]int, len(s.Clusters))
	for _, n := range s.Nodes {
		nodesPerCluster[n.Cluster]++
	}
	owner := make(map[uint16]int, len(clusters))
	for i, sh := range s.Shards {
		if len(sh.Clusters) == 0 {
			return fmt.Errorf("config: shards[%d].clusters: empty", i)
		}
		nodes := 0
		for j, c := range sh.Clusters {
			if !clusters[c] {
				return fmt.Errorf("config: shards[%d].clusters[%d]: unknown cluster %d", i, j, c)
			}
			if prev, taken := owner[c]; taken {
				return fmt.Errorf("config: shards[%d].clusters[%d]: cluster %d already assigned to shards[%d]", i, j, c, prev)
			}
			owner[c] = i
			nodes += nodesPerCluster[c]
		}
		if nodes == 0 {
			return fmt.Errorf("config: shards[%d].clusters: no nodes in clusters %v", i, sh.Clusters)
		}
	}
	for _, c := range s.Clusters {
		if _, ok := owner[c.ID]; !ok {
			return fmt.Errorf("config: shards: cluster %d not assigned to any shard (shards must partition the cluster list)", c.ID)
		}
	}
	return nil
}

// FaultEnv returns the fault environment the scenario declares — its
// faults block — or nil in a perfect world. Hosts arm it the one way
// (shard.New, under kspot.Open and a wire shard server alike); Network
// builds the bare radio.
func (s *Scenario) FaultEnv() *faults.Config {
	if s.Faults.Enabled() {
		return s.Faults
	}
	return nil
}

// Placement converts the scenario to a topo.Placement.
func (s *Scenario) Placement() *topo.Placement {
	p := &topo.Placement{
		Positions: make(map[model.NodeID]topo.Point, len(s.Nodes)+1),
		Groups:    make(map[model.NodeID]model.GroupID, len(s.Nodes)),
		Names:     make(map[model.GroupID]string, len(s.Clusters)),
	}
	p.Positions[model.Sink] = topo.Point{X: s.SinkX, Y: s.SinkY}
	for _, n := range s.Nodes {
		p.Positions[model.NodeID(n.ID)] = topo.Point{X: n.X, Y: n.Y}
		p.Groups[model.NodeID(n.ID)] = model.GroupID(n.Cluster)
	}
	for _, c := range s.Clusters {
		p.Names[model.GroupID(c.ID)] = c.Name
	}
	return p
}

// Network builds a simulated network from the scenario.
func (s *Scenario) Network() (*sim.Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opts := sim.DefaultOptions()
	if s.Payload > 0 {
		opts.Radio.Payload = s.Payload
	}
	opts.BudgetJoules = s.Budget
	if len(s.Parents) > 0 {
		tree, err := s.pinnedTree()
		if err != nil {
			return nil, err
		}
		return sim.FromTree(s.Placement(), tree, opts), nil
	}
	return sim.New(s.Placement(), s.Radius, opts)
}

// Tree returns the scenario's routing tree: the pinned one when declared,
// otherwise the first-heard BFS tree over disk connectivity.
func (s *Scenario) Tree() (*topo.Tree, error) {
	if len(s.Parents) > 0 {
		return s.pinnedTree()
	}
	p := s.Placement()
	return topo.BuildTree(p, topo.DiskLinks(p, s.Radius))
}

// pinnedTree materializes the explicit parent map.
func (s *Scenario) pinnedTree() (*topo.Tree, error) {
	tree := &topo.Tree{
		Parent:   make(map[model.NodeID]model.NodeID),
		Children: make(map[model.NodeID][]model.NodeID),
		Depth:    make(map[model.NodeID]int),
		Root:     model.Sink,
	}
	for key, parent := range s.Parents {
		var child uint16
		if _, err := fmt.Sscanf(key, "%d", &child); err != nil {
			return nil, fmt.Errorf("config: parent key %q is not a node id", key)
		}
		tree.Parent[model.NodeID(child)] = model.NodeID(parent)
		tree.Children[model.NodeID(parent)] = append(tree.Children[model.NodeID(parent)], model.NodeID(child))
	}
	for _, cs := range tree.Children {
		slices.Sort(cs)
	}
	// Fill depths by walking from the sink; unreachable nodes are an error.
	var fill func(n model.NodeID, d int)
	tree.Depth[model.Sink] = 0
	fill = func(n model.NodeID, d int) {
		tree.Depth[n] = d
		for _, c := range tree.Children[n] {
			fill(c, d+1)
		}
	}
	fill(model.Sink, 0)
	for _, n := range s.Nodes {
		if _, ok := tree.Depth[model.NodeID(n.ID)]; !ok {
			return nil, fmt.Errorf("config: node %d not reachable through pinned parents", n.ID)
		}
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("config: pinned tree invalid: %w", err)
	}
	return tree, nil
}

// nodeGroups reads node → group off the node list, with the number of
// distinct groups: all a trace source needs of the placement.
func (s *Scenario) nodeGroups() (map[model.NodeID]model.GroupID, int) {
	groups := make(map[model.NodeID]model.GroupID, len(s.Nodes))
	distinct := make(map[model.GroupID]bool, len(s.Clusters))
	for _, n := range s.Nodes {
		groups[model.NodeID(n.ID)] = model.GroupID(n.Cluster)
		distinct[model.GroupID(n.Cluster)] = true
	}
	return groups, len(distinct)
}

// Source builds the scenario's trace source.
func (s *Scenario) Source() (trace.Source, error) {
	switch s.Workload.Kind {
	case "", "rooms":
		groups, n := s.nodeGroups()
		src := trace.NewRoomActivity(s.Workload.Seed, groups, n)
		if s.Workload.Period > 0 {
			src.Period = model.Epoch(s.Workload.Period)
		}
		if s.Workload.ActiveFrac > 0 {
			src.ActiveFrac = s.Workload.ActiveFrac
		}
		return src, nil
	case "diurnal":
		return trace.NewDiurnal(s.Workload.Seed), nil
	case "walk":
		lo, hi := defRange(s.Workload.Min, s.Workload.Max, 0, 100)
		return trace.NewRandomWalk(s.Workload.Seed, lo, hi), nil
	case "zipf":
		_, hi := defRange(s.Workload.Min, s.Workload.Max, 0, 1000)
		groups, _ := s.nodeGroups()
		return trace.NewZipf(s.Workload.Seed, groups, 1.5, hi), nil
	case "uniform":
		lo, hi := defRange(s.Workload.Min, s.Workload.Max, 0, 100)
		return &trace.Uniform{Seed: s.Workload.Seed, Min: lo, Max: hi}, nil
	case "fixture":
		vals := make(map[model.NodeID][]model.Value, len(s.Workload.Fixture))
		for k, vs := range s.Workload.Fixture {
			var id uint16
			if _, err := fmt.Sscanf(k, "%d", &id); err != nil {
				return nil, fmt.Errorf("config: fixture key %q is not a node id", k)
			}
			mv := make([]model.Value, len(vs))
			for i, v := range vs {
				mv[i] = model.Value(v)
			}
			vals[model.NodeID(id)] = mv
		}
		return trace.NewFixture(vals), nil
	default:
		return nil, fmt.Errorf("config: unknown workload kind %q", s.Workload.Kind)
	}
}

func defRange(lo, hi, dlo, dhi float64) (float64, float64) {
	if lo == 0 && hi == 0 {
		return dlo, dhi
	}
	return lo, hi
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Decode(data)
}

// Decode parses and validates scenario JSON. A key the schema does not
// know is an error naming it: a misspelled block must not load as a world
// without it.
func Decode(data []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: bad scenario JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Save writes the scenario as indented JSON.
func (s *Scenario) Save(path string) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FromPlacement captures an in-memory placement as a scenario (the
// Configuration Panel's "create a new scenario that can be stored in a
// configuration file").
func FromPlacement(name string, p *topo.Placement, radius float64) *Scenario {
	s := &Scenario{Name: name, Radius: radius}
	if pt, ok := p.Positions[model.Sink]; ok {
		s.SinkX, s.SinkY = pt.X, pt.Y
	}
	for _, id := range p.SensorNodes() {
		pt := p.Positions[id]
		s.Nodes = append(s.Nodes, Node{ID: uint16(id), X: pt.X, Y: pt.Y, Cluster: uint16(p.Groups[id])})
	}
	var gids []model.GroupID
	for g := range p.Names {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, g := range gids {
		s.Clusters = append(s.Clusters, Cluster{ID: uint16(g), Name: p.Names[g]})
	}
	if len(s.Clusters) == 0 {
		for _, g := range p.GroupIDs() {
			s.Clusters = append(s.Clusters, Cluster{ID: uint16(g), Name: fmt.Sprintf("cluster %d", g)})
		}
	}
	return s
}

// Figure3Scenario returns the paper's demo scenario as a ready-made config.
func Figure3Scenario() *Scenario {
	s := FromPlacement("icde09-demo", trace.Figure3Placement(), 15)
	s.Workload = Workload{Kind: "rooms", Seed: 42, Period: 10, ActiveFrac: 0.5}
	return s
}

// scalePerRoom is the sensors-per-room density of the scale-* scenario
// family.
const scalePerRoom = 20

// ScaleScenario deterministically generates the scale-<n> deployment: n
// sensors in rooms of 20 on a square building grid, the production-scale
// workload family of the benchmark trajectory (scenarios/scale-1000.json,
// scale-4000.json are its committed outputs — regenerate with
// `kspot-sim -gen-scale <n> -emit <file>`). n must be a positive multiple
// of 20. The generator is a pure function of n: positions derive from a
// seeded layout and are rounded to centimeters so the JSON stays compact
// and byte-stable across regenerations.
func ScaleScenario(n int) (*Scenario, error) {
	if n < scalePerRoom || n%scalePerRoom != 0 {
		return nil, fmt.Errorf("config: scale scenario size %d must be a positive multiple of %d", n, scalePerRoom)
	}
	rooms := n / scalePerRoom
	p := topo.Rooms(rooms, scalePerRoom, 12, int64(1009+n))
	for id, pt := range p.Positions {
		p.Positions[id] = topo.Point{
			X: math.Round(pt.X*100) / 100,
			Y: math.Round(pt.Y*100) / 100,
		}
	}
	s := FromPlacement(fmt.Sprintf("scale-%d", n), p, 15)
	s.Workload = Workload{Kind: "rooms", Seed: int64(n), Period: 10, ActiveFrac: 0.3}
	// A scale scenario must actually deploy: reject an invalid layout, or
	// one whose routing tree does not connect, rather than shipping a dead
	// file. Only the tree is built: the network's tables would be thrown
	// away.
	err := s.Validate()
	if err == nil {
		_, err = s.Tree()
	}
	if err != nil {
		return nil, fmt.Errorf("config: scale scenario %d does not deploy: %w", n, err)
	}
	return s, nil
}

// Roster returns the scenario's sensor node ids in ascending order — the
// positional frame of reference of the wire protocol's epoch-round
// encoding. Shard server and coordinator both derive it here, from the
// shard's sub-scenario, so the two ends cannot disagree about it.
func (s *Scenario) Roster() []model.NodeID {
	roster := make([]model.NodeID, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		roster = append(roster, model.NodeID(n.ID))
	}
	slices.Sort(roster)
	return roster
}

// ShardName returns shard i's display name ("shard-<i>" when unnamed).
func (s *Scenario) ShardName(i int) string {
	if i < len(s.Shards) && s.Shards[i].Name != "" {
		return s.Shards[i].Name
	}
	return fmt.Sprintf("shard-%d", i)
}

// shardSeedStride decorrelates per-shard fault seeds derived from one
// deployment-wide seed (shard 0 keeps the base seed, so an unsharded
// deployment and shard 0 of a sharded one replay identical fault patterns).
const shardSeedStride = 0x9E3779B9

// ShardFaultSeed derives shard i's fault-environment seed, base + i*stride,
// so the shards fade independently under one armed config.
func (s *Scenario) ShardFaultSeed(base int64, i int) int64 {
	return base + int64(i)*shardSeedStride
}

// ShardFaults specializes a deployment-wide fault environment for shard i:
// the seed is derived per shard (ShardFaultSeed) and churn events are
// filtered to the shard's own nodes. Frame-fault probabilities apply to
// every shard unchanged — loss is physics, the same weather over every
// network.
func (s *Scenario) ShardFaults(base faults.Config, i int) faults.Config {
	out := base
	out.Seed = s.ShardFaultSeed(base.Seed, i)
	if len(base.Churn) > 0 && i < len(s.Shards) {
		members := make(map[model.NodeID]bool)
		in := make(map[uint16]bool, len(s.Shards[i].Clusters))
		for _, c := range s.Shards[i].Clusters {
			in[c] = true
		}
		for _, n := range s.Nodes {
			if in[n.Cluster] {
				members[model.NodeID(n.ID)] = true
			}
		}
		out.Churn = nil
		for _, ev := range base.Churn {
			if members[ev.Node] {
				out.Churn = append(out.Churn, ev)
			}
		}
	}
	return out
}

// ShardScenarios splits a sharded scenario into its per-shard
// sub-deployments — each shard becomes a complete Scenario with its own
// base station (placed at the centroid of the shard's nodes, rounded to
// centimeters), its subset of nodes and clusters, and the parent's radio
// parameters. Node and cluster ids are preserved globally unique, so one
// trace source built from the flat scenario samples identical readings on
// the flat and the sharded deployment — the root of the federation layer's
// identical-answer guarantee. The per-shard Faults environment is NOT
// baked in here; kspot.System derives it at arm time via ShardFaults.
//
// An unsharded scenario returns itself as the single deployment.
func (s *Scenario) ShardScenarios() ([]*Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Shards) == 0 {
		return []*Scenario{s}, nil
	}
	out := make([]*Scenario, 0, len(s.Shards))
	for i, sh := range s.Shards {
		in := make(map[uint16]bool, len(sh.Clusters))
		for _, c := range sh.Clusters {
			in[c] = true
		}
		sub := &Scenario{
			Name:     fmt.Sprintf("%s/%s", s.Name, s.ShardName(i)),
			Radius:   s.Radius,
			Payload:  s.Payload,
			Budget:   s.Budget,
			Workload: s.Workload,
		}
		var cx, cy float64
		for _, n := range s.Nodes {
			if !in[n.Cluster] {
				continue
			}
			sub.Nodes = append(sub.Nodes, n)
			cx += n.X
			cy += n.Y
		}
		for _, c := range s.Clusters {
			if in[c.ID] {
				sub.Clusters = append(sub.Clusters, c)
			}
		}
		// Validate guarantees at least one node per shard; the shard's
		// base station sits at its field's centroid (each shard is its own
		// radio network with its own gateway).
		n := float64(len(sub.Nodes))
		sub.SinkX = math.Round(cx/n*100) / 100
		sub.SinkY = math.Round(cy/n*100) / 100
		out = append(out, sub)
	}
	return out, nil
}

// AutoShard overwrites the scenario's shards block, partitioning the
// cluster list (in id order) into n contiguous blocks of near-equal size.
// Cluster ids are assigned in spatial order by every generator in this
// repo (rooms on a grid, contiguous regroupings), so contiguous id blocks
// stay radio-connected. n ≤ 1 clears the block (a flat deployment).
func (s *Scenario) AutoShard(n int) error {
	if n <= 1 {
		s.Shards = nil
		return nil
	}
	if n > len(s.Clusters) {
		return fmt.Errorf("config: cannot split %d clusters into %d shards", len(s.Clusters), n)
	}
	ids := make([]uint16, 0, len(s.Clusters))
	for _, c := range s.Clusters {
		ids = append(ids, c.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s.Shards = make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(ids)/n, (i+1)*len(ids)/n
		s.Shards = append(s.Shards, Shard{Clusters: append([]uint16(nil), ids[lo:hi]...)})
	}
	return s.Validate()
}

// ScaleScenarioShards generates the scale-<n> deployment pre-split into
// the given number of shards, verifying every shard actually deploys (its
// subfield is radio-connected around its own base station). Sharded scale
// scenarios are generated, never committed: `kspot-sim -gen-scale <n>
// -shards <k>` reproduces the file byte-for-byte when one is needed.
func ScaleScenarioShards(n, shards int) (*Scenario, error) {
	s, err := ScaleScenario(n)
	if err != nil {
		return nil, err
	}
	if err := s.AutoShard(shards); err != nil {
		return nil, err
	}
	subs, err := s.ShardScenarios()
	if err != nil {
		return nil, err
	}
	for i, sub := range subs {
		if _, err := sub.Tree(); err != nil {
			return nil, fmt.Errorf("config: scale scenario %d shard %d does not deploy: %w", n, i, err)
		}
	}
	return s, nil
}

// Figure1Scenario returns the paper's worked example with its exact values
// and its exact routing tree (s9 under s4 — the edge that trips the naive
// strategy).
func Figure1Scenario() *Scenario {
	p := trace.Figure1Placement()
	s := FromPlacement("figure-1", p, 8)
	fix := make(map[string][]float64, 9)
	for id, v := range trace.Figure1Values() {
		fix[fmt.Sprintf("%d", id)] = []float64{float64(v)}
	}
	s.Workload = Workload{Kind: "fixture", Fixture: fix}
	s.Parents = make(map[string]uint16)
	tree := trace.Figure1Tree()
	for child, parent := range tree.Parent {
		s.Parents[fmt.Sprintf("%d", child)] = uint16(parent)
	}
	return s
}
