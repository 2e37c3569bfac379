package config

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/trace"
)

func validScenario() *Scenario {
	return &Scenario{
		Name:   "test",
		Radius: 10,
		Nodes: []Node{
			{ID: 1, X: 5, Y: 0, Cluster: 1},
			{ID: 2, X: 0, Y: 5, Cluster: 1},
		},
		Clusters: []Cluster{{ID: 1, Name: "Lab"}},
	}
}

// TestValidate pins both that malformed scenarios are rejected and that
// the error names the offending field path — a hand-edited Configuration
// Panel file must point at its own mistake, not emit a bare message.
func TestValidate(t *testing.T) {
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Scenario)
		want string // substring the error must contain (the field path)
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "config: name: missing"},
		{"bad radius", func(s *Scenario) { s.Radius = 0 }, "config: radio_radius: must be positive"},
		{"no nodes", func(s *Scenario) { s.Nodes = nil }, "config: nodes: empty"},
		{"sink id", func(s *Scenario) { s.Nodes[0].ID = 0 }, "config: nodes[0].id: 0 is reserved"},
		{"dup node", func(s *Scenario) { s.Nodes[1].ID = s.Nodes[0].ID }, "config: nodes[1].id: duplicate node id 1"},
		{"unknown cluster", func(s *Scenario) { s.Nodes[1].Cluster = 9 }, "config: nodes[1].cluster: unknown cluster 9"},
		{"dup cluster", func(s *Scenario) { s.Clusters = append(s.Clusters, Cluster{ID: 1, Name: "dup"}) },
			"config: clusters[1].id: duplicate cluster id 1"},
		{"churn unknown node", func(s *Scenario) {
			s.Faults = &faults.Config{Churn: []faults.ChurnEvent{{Node: 77, Epoch: 1, Down: true}}}
		}, "config: faults.churn[0].node: unknown node 77"},
		{"faults inner", func(s *Scenario) { s.Faults = &faults.Config{Loss: 2} }, "config: faults: "},
		{"shards without clusters", func(s *Scenario) {
			s.Clusters = nil
			s.Shards = []Shard{{Clusters: []uint16{1}}}
		}, "config: shards: sharding needs a clusters list"},
		{"shards with parents", func(s *Scenario) {
			s.Parents = map[string]uint16{"1": 0}
			s.Shards = []Shard{{Clusters: []uint16{1}}}
		}, "config: shards: cannot be combined with a pinned parents tree"},
		{"empty shard", func(s *Scenario) {
			s.Shards = []Shard{{Clusters: []uint16{1}}, {}}
		}, "config: shards[1].clusters: empty"},
		{"shard unknown cluster", func(s *Scenario) {
			s.Shards = []Shard{{Clusters: []uint16{1}}, {Clusters: []uint16{9}}}
		}, "config: shards[1].clusters[0]: unknown cluster 9"},
		{"shard double assignment", func(s *Scenario) {
			s.Shards = []Shard{{Clusters: []uint16{1}}, {Clusters: []uint16{1}}}
		}, "config: shards[1].clusters[0]: cluster 1 already assigned to shards[0]"},
		{"shard without nodes", func(s *Scenario) {
			s.Clusters = append(s.Clusters, Cluster{ID: 2, Name: "Empty"})
			s.Shards = []Shard{{Clusters: []uint16{1}}, {Clusters: []uint16{2}}}
		}, "config: shards[1].clusters: no nodes in clusters [2]"},
		{"unassigned cluster", func(s *Scenario) {
			s.Clusters = append(s.Clusters, Cluster{ID: 2, Name: "Annex"})
			s.Nodes[1].Cluster = 2
			s.Shards = []Shard{{Clusters: []uint16{1}}}
		}, "config: shards: cluster 2 not assigned to any shard"},
	}
	for _, m := range mutations {
		s := validScenario()
		m.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not carry field path %q", m.name, err, m.want)
		}
	}
}

// shardedScenario is a 2-shard, 4-node, 2-cluster deployment.
func shardedScenario() *Scenario {
	return &Scenario{
		Name:   "fed-test",
		Radius: 10,
		Nodes: []Node{
			{ID: 1, X: 1, Y: 0, Cluster: 1},
			{ID: 2, X: 3, Y: 0, Cluster: 1},
			{ID: 3, X: 20, Y: 0, Cluster: 2},
			{ID: 4, X: 24, Y: 0, Cluster: 2},
		},
		Clusters: []Cluster{{ID: 1, Name: "West"}, {ID: 2, Name: "East"}},
		Shards:   []Shard{{Name: "west", Clusters: []uint16{1}}, {Clusters: []uint16{2}}},
	}
}

func TestShardScenarios(t *testing.T) {
	s := shardedScenario()
	subs, err := s.ShardScenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("shards = %d, want 2", len(subs))
	}
	if subs[0].Name != "fed-test/west" || subs[1].Name != "fed-test/shard-1" {
		t.Errorf("shard names = %q, %q", subs[0].Name, subs[1].Name)
	}
	// Node ids are preserved globally unique, so one flat trace source
	// samples identical readings on the sharded deployment.
	if subs[0].Nodes[0].ID != 1 || subs[0].Nodes[1].ID != 2 || subs[1].Nodes[0].ID != 3 {
		t.Errorf("shard nodes renumbered: %+v / %+v", subs[0].Nodes, subs[1].Nodes)
	}
	// The shard's base station sits at its field's centroid.
	if subs[0].SinkX != 2 || subs[0].SinkY != 0 || subs[1].SinkX != 22 {
		t.Errorf("shard sinks at (%v,%v) and (%v,%v)", subs[0].SinkX, subs[0].SinkY, subs[1].SinkX, subs[1].SinkY)
	}
	for i, sub := range subs {
		if _, err := sub.Network(); err != nil {
			t.Errorf("shard %d does not deploy: %v", i, err)
		}
	}
	// Unsharded scenarios pass through as the single deployment.
	flat := validScenario()
	subs, err = flat.ShardScenarios()
	if err != nil || len(subs) != 1 || subs[0] != flat {
		t.Fatalf("flat ShardScenarios = %v, %v", subs, err)
	}
}

func TestShardFaults(t *testing.T) {
	s := shardedScenario()
	base := faults.Config{
		Seed: 7,
		Loss: 0.1,
		Churn: []faults.ChurnEvent{
			{Node: 1, Epoch: 2, Down: true},
			{Node: 4, Epoch: 3, Down: true},
		},
	}
	f0 := s.ShardFaults(base, 0)
	f1 := s.ShardFaults(base, 1)
	// Shard 0 keeps the deployment seed (an unsharded system replays the
	// same fault pattern); shard 1 derives a distinct one.
	if f0.Seed != 7 {
		t.Errorf("shard 0 seed = %d, want base 7", f0.Seed)
	}
	if f1.Seed != 7+shardSeedStride {
		t.Errorf("shard 1 seed = %d, want base 7 + stride", f1.Seed)
	}
	if f0.Loss != 0.1 || f1.Loss != 0.1 {
		t.Errorf("frame faults must apply to every shard: %v / %v", f0.Loss, f1.Loss)
	}
	// Churn is filtered to the shard's own nodes.
	if len(f0.Churn) != 1 || f0.Churn[0].Node != 1 {
		t.Errorf("shard 0 churn = %+v", f0.Churn)
	}
	if len(f1.Churn) != 1 || f1.Churn[0].Node != 4 {
		t.Errorf("shard 1 churn = %+v", f1.Churn)
	}
}

func TestAutoShard(t *testing.T) {
	s := Figure3Scenario() // 6 clusters
	if err := s.AutoShard(2); err != nil {
		t.Fatal(err)
	}
	if len(s.Shards) != 2 || len(s.Shards[0].Clusters) != 3 || len(s.Shards[1].Clusters) != 3 {
		t.Fatalf("auto-shard split = %+v", s.Shards)
	}
	if err := s.AutoShard(7); err == nil {
		t.Error("splitting 6 clusters into 7 shards accepted")
	}
	if err := s.AutoShard(1); err != nil || s.Shards != nil {
		t.Errorf("AutoShard(1) should clear the block: %v %+v", err, s.Shards)
	}
}

func TestScaleScenarioShards(t *testing.T) {
	s, err := ScaleScenarioShards(400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Shards) != 4 {
		t.Fatalf("shards = %+v", s.Shards)
	}
	subs, err := s.ShardScenarios()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sub := range subs {
		total += len(sub.Nodes)
	}
	if total != 400 {
		t.Fatalf("shard node counts sum to %d, want 400", total)
	}
	// A split whose shard subfield is not radio-connected around its own
	// base station is rejected at generation time, not at deploy time.
	if _, err := ScaleScenarioShards(200, 4); err == nil {
		t.Error("disconnected 200/4 split accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := Figure3Scenario()
	path := filepath.Join(t.TempDir(), "demo.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Nodes) != len(s.Nodes) || len(got.Clusters) != 6 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDecodeBadJSON(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := Decode([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestDecodeRejectsUnknownKeys pins that a key the schema does not know —
// a typo, or a key an earlier schema had — fails the load naming the key,
// instead of loading silently as a world without it.
func TestDecodeRejectsUnknownKeys(t *testing.T) {
	const scenario = `{"name":"x","radio_radius":10,"nodes":[{"id":1,"x":5,"y":0,"cluster":1}],"clusters":[{"id":1,"name":"Lab"}]%s}`
	if _, err := Decode([]byte(fmt.Sprintf(scenario, ""))); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct{ name, extra, key string }{
		{"typo'd faults block", `,"fautls":{"seed":1,"loss":0.1}`, "fautls"},
		{"top-level loss_rate", `,"loss_rate":0.1`, "loss_rate"},
		{"shard fault_seed", `,"shards":[{"clusters":[1],"fault_seed":99}]`, "fault_seed"},
	}
	for _, tc := range cases {
		_, err := Decode([]byte(fmt.Sprintf(scenario, tc.extra)))
		if err == nil {
			t.Errorf("%s: loaded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: error %q does not name key %q", tc.name, err, tc.key)
		}
	}
}

func TestPlacementConversion(t *testing.T) {
	s := validScenario()
	p := s.Placement()
	if len(p.SensorNodes()) != 2 {
		t.Fatal("sensor count")
	}
	if p.Names[1] != "Lab" {
		t.Fatal("cluster name lost")
	}
	if p.Groups[1] != 1 {
		t.Fatal("grouping lost")
	}
}

func TestNetworkBuilds(t *testing.T) {
	net, err := validScenario().Network()
	if err != nil {
		t.Fatal(err)
	}
	if net.Tree.Size() != 3 {
		t.Fatalf("tree size = %d", net.Tree.Size())
	}
}

// BenchmarkNetworkBuild times what a shard's start-up and every restart
// pay before the first epoch: a scale scenario's network — disk links, the
// first-heard tree, the node-indexed tables — built from the scenario.
func BenchmarkNetworkBuild(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		s, err := ScaleScenario(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Network(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNetworkAppliesRadio pins what a scenario's radio fields become: the
// payload sizes the link, and the faults block is the fault environment
// hosts arm, never a property of the bare link.
func TestNetworkAppliesRadio(t *testing.T) {
	s := validScenario()
	if s.FaultEnv() != nil {
		t.Fatalf("a lossless scenario declares fault environment %+v", s.FaultEnv())
	}
	s.Payload = 64
	s.Faults = &faults.Config{Seed: 3, Delay: 0.2}
	net, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	if net.Link.Config().Payload != 64 || net.Link.Config().Fault != nil {
		t.Fatalf("radio config = %+v", net.Link.Config())
	}
	if s.FaultEnv() != s.Faults {
		t.Fatalf("a faults block is not the scenario's fault environment: %+v", s.FaultEnv())
	}
}

func TestSourceKinds(t *testing.T) {
	for _, kind := range []string{"", "rooms", "diurnal", "walk", "zipf", "uniform"} {
		s := validScenario()
		s.Workload = Workload{Kind: kind, Seed: 1}
		src, err := s.Source()
		if err != nil {
			t.Errorf("kind %q: %v", kind, err)
			continue
		}
		_ = src.Sample(1, 0)
	}
	s := validScenario()
	s.Workload = Workload{Kind: "martian"}
	if _, err := s.Source(); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFixtureWorkload(t *testing.T) {
	s := validScenario()
	s.Workload = Workload{Kind: "fixture", Fixture: map[string][]float64{"1": {42.5}}}
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Sample(1, 0); got != 42.5 {
		t.Fatalf("fixture sample = %v", got)
	}
	s.Workload.Fixture = map[string][]float64{"zebra": {1}}
	if _, err := s.Source(); err == nil {
		t.Fatal("bad fixture key accepted")
	}
}

func TestFigure1Scenario(t *testing.T) {
	s := Figure1Scenario()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range trace.Figure1Values() {
		if got := src.Sample(id, 0); got != want {
			t.Errorf("node %d = %v, want %v", id, got, want)
		}
	}
	if len(s.Clusters) != 4 {
		t.Errorf("clusters = %d", len(s.Clusters))
	}
}

func TestFigure3ScenarioShape(t *testing.T) {
	s := Figure3Scenario()
	if len(s.Nodes) != 14 || len(s.Clusters) != 6 {
		t.Fatalf("demo scenario shape: %d nodes, %d clusters", len(s.Nodes), len(s.Clusters))
	}
	names := map[string]bool{}
	for _, c := range s.Clusters {
		names[c.Name] = true
	}
	if !names["Auditorium"] || !names["Lobby"] {
		t.Errorf("cluster names = %v", names)
	}
}

func TestFromPlacementUnnamedClusters(t *testing.T) {
	p := trace.Figure1Placement()
	for g := range p.Names {
		delete(p.Names, g)
	}
	s := FromPlacement("anon", p, 8)
	if len(s.Clusters) != 4 {
		t.Fatalf("clusters = %d", len(s.Clusters))
	}
	if !strings.HasPrefix(s.Clusters[0].Name, "cluster ") {
		t.Errorf("fallback name = %q", s.Clusters[0].Name)
	}
}

func TestScenarioSinkPlacement(t *testing.T) {
	s := validScenario()
	s.SinkX, s.SinkY = 3, 4
	p := s.Placement()
	if pt := p.Positions[model.Sink]; pt.X != 3 || pt.Y != 4 {
		t.Fatalf("sink at %+v", pt)
	}
}
