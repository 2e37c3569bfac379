package kspot

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"kspot/internal/model"
)

// shardedDemo returns the Figure-3 conference deployment split into n
// federated shards.
func shardedDemo(t *testing.T, n int) *Scenario {
	t.Helper()
	scen := DemoScenario()
	if err := scen.AutoShard(n); err != nil {
		t.Fatal(err)
	}
	return scen
}

// legParallel opens a test's sequential leg (live=false: Parallel 1) or its
// concurrent one (live=true: Parallel 4 — query groups acquire at once, the
// next epoch presamples in the background, sweeps run level-synchronously).
func legParallel(live bool) OpenOption {
	if live {
		return WithParallel(4)
	}
	return WithParallel(1)
}

// runCursor steps a query to completion and returns the per-epoch results.
func runCursor(t *testing.T, sys *System, sql string, algo Algorithm, epochs int) []StepResult {
	t.Helper()
	cur, err := sys.PostWith(sql, algo)
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
	return out
}

// TestFederatedDemoEquivalence is the federation layer's identical-answer
// pin on the paper's demo deployment: the conference site split into 2 and
// 3 shards must answer every epoch byte-identically to the flat run, for
// MINT and TAG, sequential and concurrent — and
// every federated epoch must also match the exact oracle over the union
// of the shards' readings.
func TestFederatedDemoEquivalence(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	const epochs = 10
	for _, algo := range []Algorithm{AlgoMINT, AlgoTAG} {
		flatSys, err := Open(DemoScenario())
		if err != nil {
			t.Fatal(err)
		}
		flat := runCursor(t, flatSys, sql, algo, epochs)
		for _, shards := range []int{2, 3} {
			for _, live := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/live=%v", algo, shards, live), func(t *testing.T) {
					sys, err := Open(shardedDemo(t, shards), legParallel(live))
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					if sys.Shards() != shards {
						t.Fatalf("system has %d shards, want %d", sys.Shards(), shards)
					}
					got := runCursor(t, sys, sql, algo, epochs)
					for e := range got {
						if !model.EqualAnswers(got[e].Answers, flat[e].Answers) {
							t.Fatalf("epoch %d: federated %v, flat %v", e, got[e].Answers, flat[e].Answers)
						}
						if !got[e].Correct {
							t.Fatalf("epoch %d: federated answers %v diverged from oracle %v",
								e, got[e].Answers, got[e].Exact)
						}
					}
					f := sys.FederationStats()
					if f.Rounds != epochs || f.Phase1Msgs == 0 || f.TxBytes == 0 {
						t.Fatalf("coordinator tier unaccounted: %+v", f)
					}
					// Every radio message belongs to exactly one shard: the
					// per-shard counters must sum to the captured total.
					sum := 0
					for _, net := range sys.Networks() {
						sum += net.Snap().Messages
					}
					if total := sys.CaptureStats("check", epochs); total.Messages != sum {
						t.Fatalf("per-shard messages sum %d, capture total %d", sum, total.Messages)
					}
				})
			}
		}
	}
}

// TestFederatedMultiQueryLive: several cursors on one concurrent sharded
// deployment share the per-shard epoch sweeps and all answer exactly.
func TestFederatedMultiQueryLive(t *testing.T) {
	sys, err := Open(shardedDemo(t, 2), WithParallel(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	queries := []struct {
		sql  string
		algo Algorithm
	}{
		{"SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoMINT},
		{"SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid", AlgoTAG},
	}
	cursors := make([]*Cursor, len(queries))
	for i, q := range queries {
		cur, err := sys.PostWith(q.sql, q.algo)
		if err != nil {
			t.Fatal(err)
		}
		cursors[i] = cur
	}
	for e := 0; e < 6; e++ {
		for i, cur := range cursors {
			res, err := cur.Step()
			if err != nil {
				t.Fatal(err)
			}
			if res.Epoch != Epoch(e) {
				t.Fatalf("query %d: epoch %d at step %d (lock-step broken)", i, res.Epoch, e)
			}
			if !res.Correct {
				t.Fatalf("query %d epoch %d: %v vs exact %v", i, e, res.Answers, res.Exact)
			}
		}
	}
}

// TestFederatedHistoricDemo: WITH HISTORY federates (PR 5 lifted the PR 4
// rejection). On the demo deployment split 2 and 3 ways, for TJA, TPUT
// and the centralized baseline, the federated historic answers must be
// byte-identical to the flat run, sequential and concurrent, with coordinator
// backhaul accounted — and GROUP BY ... WITH HISTORY (the horizontally
// fragmented case, which rides the snapshot pipeline) keeps working.
func TestFederatedHistoricDemo(t *testing.T) {
	const sql = "SELECT TOP 4 epoch, AVG(sound) FROM sensors WITH HISTORY 16"
	for _, algo := range []Algorithm{AlgoTJA, AlgoTPUT, AlgoCentral} {
		flatSys, err := Open(DemoScenario())
		if err != nil {
			t.Fatal(err)
		}
		flatCur, err := flatSys.PostWith(sql, algo)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := flatCur.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(flat) != 4 {
			t.Fatalf("%s: flat run returned %d answers, want 4", algo, len(flat))
		}
		for _, shards := range []int{2, 3} {
			for _, live := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/live=%v", algo, shards, live), func(t *testing.T) {
					sys, err := Open(shardedDemo(t, shards), legParallel(live))
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					cur, err := sys.PostWith(sql, algo)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cur.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !model.EqualAnswers(got, flat) {
						t.Fatalf("federated %v, flat %v", got, flat)
					}
					f := sys.FederationStats()
					if f.Rounds != 1 || f.Phase1Msgs != shards || f.TxBytes == 0 {
						t.Fatalf("coordinator tier unaccounted: %+v", f)
					}
				})
			}
		}
	}

	sys, err := Open(shardedDemo(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res, err := cur.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("epoch %d: %v vs %v", res.Epoch, res.Answers, res.Exact)
		}
	}
}

// TestFederatedFaultEquivalence: a sharded deployment under an armed fault
// environment (loss + churn, per-shard derived seeds) must degrade
// identically at Parallel 1 and Parallel 4 — answers and traffic — and churn
// must strike the shard that owns the node.
func TestFederatedFaultEquivalence(t *testing.T) {
	const epochs = 12
	cfg := FaultConfig{
		Seed: 11,
		Loss: 0.05,
		Churn: []ChurnEvent{
			{Node: 3, Epoch: 4, Down: true},
		},
	}
	run := func(live bool) ([]StepResult, RunStats) {
		scen := shardedDemo(t, 2)
		scen.Faults = &cfg
		sys, err := Open(scen, legParallel(live))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
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
		// Only the shard that owns node 3 knows it; churn must have
		// struck there (other shards report unknown nodes as alive).
		owned := false
		for _, net := range sys.Networks() {
			if _, ok := net.Topology().Positions[3]; !ok {
				continue
			}
			owned = true
			if net.Alive(3) {
				t.Errorf("live=%v: node 3 should be churned down in its shard", live)
			}
		}
		if !owned {
			t.Errorf("live=%v: no shard owns node 3", live)
		}
		return out, sys.CaptureStats("run", epochs)
	}
	det, detStats := run(false)
	liv, livStats := run(true)
	for e := range det {
		if !model.EqualAnswers(det[e].Answers, liv[e].Answers) {
			t.Fatalf("epoch %d: det %v, live %v", e, det[e].Answers, liv[e].Answers)
		}
	}
	if detStats.Messages != livStats.Messages || detStats.TxBytes != livStats.TxBytes {
		t.Errorf("traffic diverged: det %d msgs/%d bytes, live %d msgs/%d bytes",
			detStats.Messages, detStats.TxBytes, livStats.Messages, livStats.TxBytes)
	}
}

// TestFederatedSystemPanel: the federated panel leads with per-shard
// traffic rows and the coordinator tier's backhaul line.
func TestFederatedSystemPanel(t *testing.T) {
	sys, err := Open(shardedDemo(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	runCursor(t, sys, "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoMINT, 4)
	panel := sys.SystemPanel(nil)
	for _, want := range []string{"per-shard traffic", "shard-0", "shard-1", "total", "coordinator tier"} {
		if !strings.Contains(panel, want) {
			t.Errorf("panel missing %q:\n%s", want, panel)
		}
	}
}

// TestFederatedCloseDuringStep extends the goroutine-leak contract to the
// federated teardown: a concurrent sharded deployment with StepContext
// cancels racing System.Close must neither deadlock nor double-deliver —
// every epoch observed before the close is gapless, a cancelled epoch
// re-buffered on one shard while another shard tears down is dropped
// (never resurrected), and no goroutine outlives the deployment.
func TestFederatedCloseDuringStep(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		sys, err := Open(shardedDemo(t, 3), WithParallel(2))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
		if err != nil {
			t.Fatal(err)
		}
		next := Epoch(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 0 {
					go cancel()
				}
				res, err := cur.StepContext(ctx)
				cancel()
				switch {
				case err == nil:
					if res.Epoch != next {
						t.Errorf("round %d: epoch %d, want %d (gap or double delivery)", round, res.Epoch, next)
						return
					}
					next++
				case errors.Is(err, context.Canceled):
					// Abandoned; outcome re-buffered (or dropped post-Close).
				default:
					return // closed under us — the expected exit
				}
			}
		}()
		sys.Close() // concurrent with in-flight federated steps
		<-done
		if _, err := cur.Step(); err == nil {
			t.Fatalf("round %d: Step after Close succeeded", round)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFederatedCloseDuringHistoricRun: one-shot historic executions run
// outside the scheduler's lock-step, so Close must wait them out before
// closing any shard — otherwise a federated run finds a shard torn down
// mid-protocol. The run either completes exactly or the post-close Post
// fails cleanly.
func TestFederatedCloseDuringHistoricRun(t *testing.T) {
	const sql = "SELECT TOP 3 epoch, AVG(sound) FROM sensors WITH HISTORY 16"
	for round := 0; round < 10; round++ {
		sys, err := Open(shardedDemo(t, 3), WithParallel(2))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() {
			answers, err := cur.Run()
			if err == nil && len(answers) != 3 {
				err = fmt.Errorf("short answer set %v", answers)
			}
			got <- err
		}()
		sys.Close() // racing the in-flight federated historic run
		if err := <-got; err != nil && !strings.Contains(err.Error(), "closed") {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := sys.Post(sql); err == nil {
			t.Fatalf("round %d: Post after Close succeeded", round)
		}
	}
}

// TestAutoShardFaultsAcrossShardCounts is the faults × AutoShard table
// test: one deployment-wide fault environment (loss + churn) re-sharded
// 1, 2 and 4 ways must stay deterministic (two opens agree epoch for
// epoch), keep shard 0's derived seed equal to the base seed, and route
// every churn event to exactly the shard that owns the node.
func TestAutoShardFaultsAcrossShardCounts(t *testing.T) {
	const epochs = 8
	cfg := FaultConfig{
		Seed: 23,
		Loss: 0.05,
		Churn: []ChurnEvent{
			{Node: 3, Epoch: 2, Down: true},
			{Node: 9, Epoch: 4, Down: true},
		},
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run := func() []StepResult {
				scen := DemoScenario()
				if err := scen.AutoShard(shards); err != nil {
					t.Fatal(err)
				}
				scen.Faults = &cfg
				// Derived seeds are a pure function of (base, shard index):
				// shard 0 always keeps the base seed no matter the count.
				if got := scen.ShardFaultSeed(cfg.Seed, 0); got != cfg.Seed {
					t.Fatalf("shard 0 seed %d, want base %d", got, cfg.Seed)
				}
				sys, err := Open(scen)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				if sys.Shards() != shards {
					t.Fatalf("system has %d shards, want %d", sys.Shards(), shards)
				}
				cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
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
				// Churn must strike exactly the owning shard: the downed
				// node is dead where it lives, untouched everywhere else.
				for _, victim := range []NodeID{3, 9} {
					owners := 0
					for _, net := range sys.Networks() {
						if _, owns := net.Topology().Positions[victim]; owns {
							owners++
							if net.Alive(victim) {
								t.Errorf("shards=%d: node %d alive in its own shard after churn", shards, victim)
							}
						} else if !net.Alive(victim) {
							t.Errorf("shards=%d: node %d reported dead by a shard that does not own it", shards, victim)
						}
					}
					if owners != 1 {
						t.Errorf("shards=%d: node %d owned by %d shards", shards, victim, owners)
					}
				}
				return out
			}
			a, b := run(), run()
			for e := range a {
				if !model.EqualAnswers(a[e].Answers, b[e].Answers) {
					t.Fatalf("epoch %d: re-sharded fault run nondeterministic: %v vs %v", e, a[e].Answers, b[e].Answers)
				}
			}
		})
	}
}
