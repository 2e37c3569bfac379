package kspot

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestShippedScenariosLoad keeps the checked-in Configuration Panel files
// (scenarios/*.json) loadable and semantically intact.
func TestShippedScenariosLoad(t *testing.T) {
	demo, err := OpenFile("scenarios/icde09-demo.json")
	if err != nil {
		t.Fatalf("demo scenario: %v", err)
	}
	if got := len(demo.Scenario().Nodes); got != 14 {
		t.Errorf("demo nodes = %d, want 14", got)
	}
	runRows(t, []row{{name: "figure1.json", world: "scenarios/figure1.json", epochs: 1, checks: []check{figure1Answer},
		queries: []rowQuery{{"SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto}}}})
}

// TestLossyScenariosLoad keeps the unreliable-world family loadable, armed,
// and reproducible: each lossy scenario's run answers and counts exactly
// like the reference's own open of it (the fault layer's determinism
// contract).
func TestLossyScenariosLoad(t *testing.T) {
	var rows []row
	for file, armed := range map[string]func(f *FaultConfig) bool{
		"scenarios/lossy-bernoulli10.json": func(f *FaultConfig) bool { return f.Loss == 0.10 },
		"scenarios/lossy-bernoulli30.json": func(f *FaultConfig) bool { return f.Loss == 0.30 },
		"scenarios/lossy-burst.json":       func(f *FaultConfig) bool { return f.Burst != nil },
		"scenarios/lossy-churn.json":       func(f *FaultConfig) bool { return len(f.Churn) == 3 },
	} {
		rows = append(rows, row{name: file, world: file, epochs: 16, queries: []rowQuery{{sql: demoSQL}},
			checks: []check{func(t *testing.T, _ row, sys *System, _ outcome) {
				if f := sys.Scenario().Faults; !f.Enabled() || !armed(f) {
					t.Fatalf("faults block missing or unexpected: %+v", f)
				}
			}}})
	}
	runRows(t, rows)
}

const scaleSQL = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"

// TestScaleScenarioConformance extends the differential suite to the scale
// family: scenarios/scale-1000.json (1000 sensors, 50 rooms) runs to
// completion at Parallel 4 exactly like at Parallel 1, answers and
// traffic, and the file matches its deterministic generator (kspot-sim
// -gen-scale).
func TestScaleScenarioConformance(t *testing.T) {
	runRows(t, []row{{name: "scale-1000.json", world: "scenarios/scale-1000.json", parallel: 4, epochs: 3,
		queries: []rowQuery{{scaleSQL, AlgoMINT}}, checks: []check{matchesGenerator}}})
}

// matchesGenerator: the world file is its generator's output, byte for
// byte once marshalled.
func matchesGenerator(t *testing.T, _ row, sys *System, _ outcome) {
	scen := sys.Scenario()
	if got := len(scen.Nodes); got != 1000 {
		t.Fatalf("scale-1000 nodes = %d, want 1000", got)
	}
	gen, err := ScaleScenario(1000)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	genJSON, err := json.Marshal(gen)
	if err != nil {
		t.Fatal(err)
	}
	scenJSON, err := json.Marshal(scen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(genJSON, scenJSON) {
		t.Fatalf("checked-in scale-1000.json diverges from its generator (regenerate with kspot-sim -gen-scale 1000 -emit scenarios/scale-1000.json)")
	}
}

// TestFederatedScaleConformance is the federation acceptance pin:
// scale-1000 split into 4 shards answers like the flat run at Parallel 1
// and at Parallel 4 (under -race), with every radio message accounted to
// its shard and the coordinator tier's backhaul equal on both legs. The
// sharded scenario is generated, not committed — the `kspot-sim
// -gen-scale 1000 -shards 4` path.
func TestFederatedScaleConformance(t *testing.T) {
	runRows(t, grid(row{name: "live=%[4]v", world: "scale-1000", epochs: 3, queries: []rowQuery{{sql: scaleSQL}}},
		[]Algorithm{AlgoMINT}, []int{4}, []int{1, 4}))
}

// TestScaleScenario4000Loads keeps the 4000-node file loadable, valid and
// generator-faithful; the full conformance run lives at 1000 nodes to keep
// CI time bounded.
func TestScaleScenario4000Loads(t *testing.T) {
	if testing.Short() {
		t.Skip("4000-node topology build in -short mode")
	}
	sys, err := OpenFile("scenarios/scale-4000.json")
	if err != nil {
		t.Fatalf("scale-4000 scenario: %v", err)
	}
	if got := len(sys.Scenario().Nodes); got != 4000 {
		t.Fatalf("scale-4000 nodes = %d, want 4000", got)
	}
	if got := len(sys.Scenario().Clusters); got != 200 {
		t.Fatalf("scale-4000 clusters = %d, want 200", got)
	}
}

// TestFederatedHistoricConformance is the federated historic acceptance
// pin: historic TOP-K on scale-1000 split into 4 shards answers like the
// flat historic run at Parallel 1 and at Parallel 4 (under -race), with
// every shard-side radio message accounted to its shard and the
// coordinator tier's two-phase backhaul equal on both legs.
func TestFederatedHistoricConformance(t *testing.T) {
	runRows(t, grid(row{name: "live=%[4]v", world: "scale-1000", queries: []rowQuery{{sql: demoHistSQL}}},
		[]Algorithm{AlgoTJA}, []int{4}, []int{1, 4}))
}

// TestFedHistoricDemoScenario keeps the committed federated-historic demo
// file loadable and working end to end: the conference site split into
// two named shard networks, serving a federated WITH HISTORY query whose
// answers match the same query on the flat deployment.
func TestFedHistoricDemoScenario(t *testing.T) {
	runRows(t, []row{{name: "fed-historic-demo.json", world: "scenarios/fed-historic-demo.json",
		queries: []rowQuery{{"SELECT TOP 3 epoch, AVG(sound) FROM sensors WITH HISTORY 8", AlgoAuto}},
		checks:  []check{panelNames("east-wing", "west-wing", "coordinator tier")}}})
}

// panelNames: the system panel names every label.
func panelNames(labels ...string) check {
	return func(t *testing.T, _ row, sys *System, _ outcome) {
		panel := sys.SystemPanel(nil)
		for _, label := range labels {
			if !strings.Contains(panel, label) {
				t.Errorf("panel missing %q:\n%s", label, panel)
			}
		}
	}
}
