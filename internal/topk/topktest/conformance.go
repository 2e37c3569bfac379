package topktest

import (
	"fmt"
	"math/rand"
	"testing"

	"kspot/internal/config"
	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/trace"
)

// The conformance kit: randomized, seeded worlds plus one-call runners
// that drive any operator over them at any Parallel bound, under any fault
// environment. The cross-operator conformance suite (conformance_test.go)
// is built from these; operator packages may use them for their own
// randomized tests.

// RandomScenario derives one connected multi-room deployment from a seed:
// 3–6 rooms of 2–4 sensors with a rooms-activity workload. The scenario is
// a plain config.Scenario, so every caller can rebuild the identical fresh
// network as many times as it needs. Returns nil when the seed (and its
// derived retries) only produces disconnected layouts.
func RandomScenario(seed int64) *config.Scenario {
	rng := rand.New(rand.NewSource(seed))
	g := 3 + rng.Intn(4)
	perRoom := 2 + rng.Intn(3)
	p, used, err := connectedRooms(g, perRoom, seed)
	if err != nil {
		return nil
	}
	s := config.FromPlacement(fmt.Sprintf("conformance-%d", seed), p, 30)
	s.Workload = config.Workload{Kind: "rooms", Seed: used, Period: 4, ActiveFrac: 0.5}
	return s
}

// Scenarios returns n connected randomized deployments derived from seed —
// the standard world set of the conformance suite. The walk over candidate
// seeds is deterministic, so every run tests the identical worlds.
func Scenarios(seed int64, n int) []*config.Scenario {
	out := make([]*config.Scenario, 0, n)
	for cand := seed; len(out) < n; cand += 101 {
		if s := RandomScenario(cand); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// SingletonGroups returns a copy of the scenario with every node in its
// own cluster — the per-node top-k form FILA monitors.
func SingletonGroups(s *config.Scenario) *config.Scenario {
	c := *s
	c.Name = s.Name + "-singleton"
	c.Nodes = append([]config.Node(nil), s.Nodes...)
	c.Clusters = make([]config.Cluster, 0, len(c.Nodes))
	for i := range c.Nodes {
		c.Nodes[i].Cluster = c.Nodes[i].ID
		c.Clusters = append(c.Clusters, config.Cluster{ID: c.Nodes[i].ID, Name: fmt.Sprintf("node %d", c.Nodes[i].ID)})
	}
	return &c
}

// SnapshotRun is one conformance execution of a snapshot operator.
type SnapshotRun struct {
	Results []topk.EpochResult
	Traffic sim.Snapshot
}

// RunSnapshot drives a fresh network built from the scenario with the
// operator for the given number of epochs — at the given Parallel bound,
// under the fault environment when fcfg is non-nil — and returns the
// per-epoch results plus the run's traffic totals.
func RunSnapshot(t testing.TB, scen *config.Scenario, mk func() topk.SnapshotOperator,
	parallel int, fcfg *faults.Config, q topk.SnapshotQuery, epochs int) SnapshotRun {
	t.Helper()
	tp, src := buildNetwork(t, scen, parallel, fcfg)
	r := &topk.Runner{Net: tp, Source: src, Op: mk(), Query: q}
	results, err := r.Run(epochs)
	if err != nil {
		t.Fatalf("%s on %s: %v", r.Op.Name(), scen.Name, err)
	}
	return SnapshotRun{Results: results, Traffic: tp.Snap()}
}

// HistoricRun is one conformance execution of a historic operator.
type HistoricRun struct {
	Answers []model.Answer
	Exact   []model.Answer
	Traffic sim.Snapshot
}

// RunHistoric executes a historic operator once over a fresh network's
// buffered windows, alongside the exact oracle for the same data.
func RunHistoric(t testing.TB, scen *config.Scenario, mk func() topk.HistoricOperator,
	parallel int, fcfg *faults.Config, q topk.HistoricQuery) HistoricRun {
	t.Helper()
	tp, src := buildNetwork(t, scen, parallel, fcfg)
	data := topk.HistoricData(trace.Series(src, tp.Topology().SensorNodes(), q.Window))
	op := mk()
	answers, err := op.Run(tp, q, data)
	if err != nil {
		t.Fatalf("%s on %s: %v", op.Name(), scen.Name, err)
	}
	return HistoricRun{Answers: answers, Exact: topk.ExactHistoric(data, q), Traffic: tp.Snap()}
}

// buildNetwork assembles network + workload + faults for one run.
func buildNetwork(t testing.TB, scen *config.Scenario, parallel int, fcfg *faults.Config) (*sim.Network, trace.Source) {
	t.Helper()
	net, err := scen.Network()
	if err != nil {
		t.Fatalf("scenario %s: %v", scen.Name, err)
	}
	net.SetParallel(parallel)
	src, err := scen.Source()
	if err != nil {
		t.Fatalf("scenario %s: %v", scen.Name, err)
	}
	if fcfg != nil {
		if err := faults.Arm(net, *fcfg); err != nil {
			t.Fatalf("faults on %s: %v", scen.Name, err)
		}
	}
	return net, src
}
