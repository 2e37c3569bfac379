package kspot

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kspot/internal/model"
	"kspot/internal/trace"
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

	fig1, err := OpenFile("scenarios/figure1.json")
	if err != nil {
		t.Fatalf("figure1 scenario: %v", err)
	}
	cur, err := fig1.Post("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cur.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers[0].Group != trace.Fig1RoomC || res.Answers[0].Score != 75 {
		t.Fatalf("figure1 from file answered %v, want (C,75)", res.Answers)
	}
}

// TestLossyScenariosLoad keeps the unreliable-world family loadable, armed,
// and reproducible: the same lossy scenario stepped twice must produce the
// identical answer stream (the fault layer's determinism contract).
func TestLossyScenariosLoad(t *testing.T) {
	files := map[string]func(f *FaultConfig) bool{
		"scenarios/lossy-bernoulli10.json": func(f *FaultConfig) bool { return f.Loss == 0.10 },
		"scenarios/lossy-bernoulli30.json": func(f *FaultConfig) bool { return f.Loss == 0.30 },
		"scenarios/lossy-burst.json":       func(f *FaultConfig) bool { return f.Burst != nil },
		"scenarios/lossy-churn.json":       func(f *FaultConfig) bool { return len(f.Churn) == 3 },
	}
	for file, check := range files {
		t.Run(file, func(t *testing.T) {
			run := func() []StepResult {
				sys, err := OpenFile(file)
				if err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				f := sys.Scenario().Faults
				if !f.Enabled() || !check(f) {
					t.Fatalf("%s: faults block missing or unexpected: %+v", file, f)
				}
				cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
				if err != nil {
					t.Fatal(err)
				}
				out := make([]StepResult, 0, 16)
				for i := 0; i < 16; i++ {
					res, err := cur.Step()
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, res)
				}
				return out
			}
			a, b := run(), run()
			for e := range a {
				if !model.EqualAnswers(a[e].Answers, b[e].Answers) {
					t.Fatalf("epoch %d: two runs of %s diverged: %v vs %v", e, file, a[e].Answers, b[e].Answers)
				}
			}
		})
	}
}

// TestScaleScenarioConformance extends the substrate-conformance harness to
// the scale family: scenarios/scale-1000.json (1000 sensors, 50 rooms) must
// run to completion at Parallel 1 and at Parallel 4 with identical answers
// and identical traffic, and the file
// must match its deterministic generator (kspot-sim -gen-scale).
func TestScaleScenarioConformance(t *testing.T) {
	sys, err := OpenFile("scenarios/scale-1000.json")
	if err != nil {
		t.Fatalf("scale-1000 scenario: %v", err)
	}
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

	const sql = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	epochs := 3
	run := func(live bool) ([]StepResult, RunStats) {
		s, err := OpenFile("scenarios/scale-1000.json", legParallel(live))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		cur, err := s.PostWith(sql, AlgoMINT)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]StepResult, 0, epochs)
		for i := 0; i < epochs; i++ {
			res, err := cur.Step()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out, s.CaptureStats("scale", epochs)
	}
	det, detStats := run(false)
	live, liveStats := run(true)
	for e := range det {
		if !model.EqualAnswers(det[e].Answers, live[e].Answers) {
			t.Fatalf("epoch %d: det=%v live=%v", e, det[e].Answers, live[e].Answers)
		}
		if !det[e].Correct {
			t.Fatalf("epoch %d: MINT diverged from the oracle at scale", e)
		}
	}
	if detStats.Messages != liveStats.Messages || detStats.TxBytes != liveStats.TxBytes {
		t.Fatalf("traffic diverged: det %d msgs / %d bytes, live %d msgs / %d bytes",
			detStats.Messages, detStats.TxBytes, liveStats.Messages, liveStats.TxBytes)
	}
}

// TestFederatedScaleConformance is the federation acceptance pin:
// scale-1000 split into 4 shards must produce answers identical to the
// flat run at Parallel 1 and at Parallel 4 (under -race), with every
// radio message accounted to its shard and the coordinator tier's
// backhaul measured. The sharded scenario is generated, not committed —
// the `kspot-sim -gen-scale 1000 -shards 4` path.
func TestFederatedScaleConformance(t *testing.T) {
	const sql = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	const epochs = 3

	flatSys, err := OpenFile("scenarios/scale-1000.json")
	if err != nil {
		t.Fatal(err)
	}
	flatCur, err := flatSys.PostWith(sql, AlgoMINT)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]StepResult, 0, epochs)
	for i := 0; i < epochs; i++ {
		res, err := flatCur.Step()
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, res)
	}

	scen, err := ScaleScenarioShards(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(live bool) ([]StepResult, RunStats, FederationTraffic) {
		sys, err := Open(scen, legParallel(live))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if sys.Shards() != 4 {
			t.Fatalf("system has %d shards, want 4", sys.Shards())
		}
		cur, err := sys.PostWith(sql, AlgoMINT)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]StepResult, 0, epochs)
		for i := 0; i < epochs; i++ {
			res, err := cur.Step()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		// Per-shard traffic accounts exactly for the captured total.
		sum := 0
		for _, net := range sys.Networks() {
			sum += net.Snap().Messages
		}
		total := sys.CaptureStats("federated", epochs)
		if total.Messages != sum {
			t.Fatalf("per-shard messages sum %d, capture total %d", sum, total.Messages)
		}
		return out, total, sys.FederationStats()
	}
	det, detStats, detFed := run(false)
	live, liveStats, liveFed := run(true)
	for e := range flat {
		if !model.EqualAnswers(det[e].Answers, flat[e].Answers) {
			t.Fatalf("epoch %d: sharded det=%v, flat=%v", e, det[e].Answers, flat[e].Answers)
		}
		if !model.EqualAnswers(live[e].Answers, flat[e].Answers) {
			t.Fatalf("epoch %d: sharded live=%v, flat=%v", e, live[e].Answers, flat[e].Answers)
		}
		if !det[e].Correct {
			t.Fatalf("epoch %d: federated MINT diverged from the oracle at scale", e)
		}
	}
	if detStats.Messages != liveStats.Messages || detStats.TxBytes != liveStats.TxBytes {
		t.Fatalf("sharded traffic diverged across substrates: det %d msgs / %d bytes, live %d msgs / %d bytes",
			detStats.Messages, detStats.TxBytes, liveStats.Messages, liveStats.TxBytes)
	}
	if detFed != liveFed {
		t.Fatalf("coordinator tier diverged across substrates: det %+v, live %+v", detFed, liveFed)
	}
	if detFed.Rounds != epochs || detFed.Phase1Msgs == 0 {
		t.Fatalf("coordinator tier unaccounted: %+v", detFed)
	}
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

// TestFederatedHistoricConformance is the PR 5 acceptance pin: historic
// TOP-K on scale-1000 split into 4 shards must answer byte-identically to
// the flat historic run at Parallel 1 and at Parallel 4 (under -race),
// with every shard-side radio message accounted
// to its shard, the per-shard counters summing to the captured total, and
// the coordinator tier's two-phase backhaul measured identically on both
// legs.
func TestFederatedHistoricConformance(t *testing.T) {
	const sql = "SELECT TOP 4 epoch, AVG(sound) FROM sensors WITH HISTORY 16"

	flatSys, err := OpenFile("scenarios/scale-1000.json")
	if err != nil {
		t.Fatal(err)
	}
	flatCur, err := flatSys.PostWith(sql, AlgoTJA)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flatCur.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 4 {
		t.Fatalf("flat historic run returned %d answers, want 4", len(flat))
	}

	scen, err := ScaleScenarioShards(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(live bool) ([]Answer, RunStats, FederationTraffic) {
		sys, err := Open(scen, legParallel(live))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if sys.Shards() != 4 {
			t.Fatalf("system has %d shards, want 4", sys.Shards())
		}
		cur, err := sys.PostWith(sql, AlgoTJA)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := cur.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Shard-side traffic is real radio traffic: every message belongs
		// to exactly one shard and the per-shard counters sum to the
		// captured total.
		sum := 0
		for _, net := range sys.Networks() {
			sum += net.Snap().Messages
		}
		total := sys.CaptureStats("fed-historic", 1)
		if total.Messages != sum {
			t.Fatalf("per-shard messages sum %d, capture total %d", sum, total.Messages)
		}
		if total.Messages == 0 {
			t.Fatal("no shard-side traffic recorded")
		}
		return answers, total, sys.FederationStats()
	}
	det, detStats, detFed := run(false)
	live, liveStats, liveFed := run(true)
	if !model.EqualAnswers(det, flat) {
		t.Fatalf("sharded det=%v, flat=%v", det, flat)
	}
	if !model.EqualAnswers(live, flat) {
		t.Fatalf("sharded live=%v, flat=%v", live, flat)
	}
	if detStats.Messages != liveStats.Messages || detStats.TxBytes != liveStats.TxBytes {
		t.Fatalf("sharded traffic diverged across substrates: det %d msgs / %d bytes, live %d msgs / %d bytes",
			detStats.Messages, detStats.TxBytes, liveStats.Messages, liveStats.TxBytes)
	}
	if detFed != liveFed {
		t.Fatalf("coordinator tier diverged across substrates: det %+v, live %+v", detFed, liveFed)
	}
	if detFed.Rounds != 1 || detFed.Phase1Msgs != 4 || detFed.TxBytes == 0 {
		t.Fatalf("coordinator tier unaccounted: %+v", detFed)
	}
}

// TestFedHistoricDemoScenario keeps the committed federated-historic demo
// file loadable and working end to end: the conference site split into
// two named shard networks, serving a federated WITH HISTORY query whose
// answers match the same query on the flat demo deployment.
func TestFedHistoricDemoScenario(t *testing.T) {
	const sql = "SELECT TOP 3 epoch, AVG(sound) FROM sensors WITH HISTORY 8"
	sys, err := OpenFile("scenarios/fed-historic-demo.json")
	if err != nil {
		t.Fatalf("fed-historic-demo scenario: %v", err)
	}
	defer sys.Close()
	if sys.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", sys.Shards())
	}
	cur, err := sys.Post(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Run()
	if err != nil {
		t.Fatal(err)
	}
	flatSys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	flatCur, err := flatSys.Post(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flatCur.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !model.EqualAnswers(got, want) {
		t.Fatalf("federated demo %v, flat %v", got, want)
	}
	panel := sys.SystemPanel(nil)
	for _, label := range []string{"east-wing", "west-wing", "coordinator tier"} {
		if !strings.Contains(panel, label) {
			t.Errorf("panel missing %q:\n%s", label, panel)
		}
	}
}
