package kspot

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const (
	demoSQL     = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	demoHistSQL = "SELECT TOP 4 epoch, AVG(sound) FROM sensors WITH HISTORY 16"
	windowedSQL = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4"
)

// TestFederatedDemoEquivalence is the federation layer's identical-answer
// pin on the paper's demo deployment: the conference site split into 2 and
// 3 shards answers every epoch like the flat run, for MINT and TAG,
// sequential and concurrent.
func TestFederatedDemoEquivalence(t *testing.T) {
	runRows(t, grid(row{name: "%[1]s/shards=%[2]d/live=%[4]v", world: "demo", queries: []rowQuery{{sql: demoSQL}}, epochs: 10},
		[]Algorithm{AlgoMINT, AlgoTAG}, []int{2, 3}, []int{1, 4}))
}

// TestFederatedMultiQueryLive: several cursors on one concurrent sharded
// deployment share the per-shard epoch sweeps and all answer exactly.
func TestFederatedMultiQueryLive(t *testing.T) {
	runRows(t, []row{{name: "mint+tag", world: "demo", shards: 2, parallel: 4, epochs: 6, queries: []rowQuery{
		{demoSQL, AlgoMINT}, {"SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid", AlgoTAG}}}})
}

// TestFederatedHistoricDemo: WITH HISTORY federates. On the demo deployment
// split 2 and 3 ways, for TJA, TPUT and the centralized baseline, the
// federated historic answers equal the flat run's, sequential and
// concurrent — and GROUP BY ... WITH HISTORY (the horizontally fragmented
// case, which rides the snapshot pipeline) keeps working.
func TestFederatedHistoricDemo(t *testing.T) {
	rows := grid(row{name: "%[1]s/shards=%[2]d/live=%[4]v", world: "demo", queries: []rowQuery{{sql: demoHistSQL}}},
		[]Algorithm{AlgoTJA, AlgoTPUT, AlgoCentral}, []int{2, 3}, []int{1, 4})
	runRows(t, append(rows, row{name: "group-by", world: "demo", shards: 2, epochs: 4, queries: []rowQuery{{sql: windowedSQL}}}))
}

// TestFederatedFaultEquivalence: a sharded deployment under an armed fault
// environment (loss + churn, per-shard derived seeds) degrades identically
// at Parallel 1 and Parallel 4 — answers and traffic — and churn strikes
// the shard that owns the node.
func TestFederatedFaultEquivalence(t *testing.T) {
	faults := &FaultConfig{Seed: 11, Loss: 0.05, Churn: []ChurnEvent{{Node: 3, Epoch: 4, Down: true}}}
	base := row{name: "live=%[4]v", world: "demo", shards: 2, faults: faults, epochs: 12, queries: []rowQuery{{sql: demoSQL}}, checks: []check{churnStrikesItsOwner}}
	runRows(t, grid(base, []Algorithm{AlgoAuto}, []int{2}, []int{1, 4}))
}

// churnStrikesItsOwner: every churned node is owned by exactly one shard,
// which holds it in its last scheduled state; every other shard reports it
// alive.
func churnStrikesItsOwner(t *testing.T, r row, sys *System, _ outcome) {
	last := map[NodeID]ChurnEvent{}
	for _, c := range sys.Scenario().Faults.Churn {
		if prev, ok := last[c.Node]; int(c.Epoch) < r.epochs && (!ok || c.Epoch >= prev.Epoch) {
			last[c.Node] = c
		}
	}
	for n, c := range last {
		owners := 0
		for _, net := range sys.Networks() {
			_, owns := net.Topology().Positions[n]
			if owns {
				owners++
			}
			if want := !owns || !c.Down; net.Alive(n) != want {
				t.Errorf("node %d alive=%v in a shard that owns it=%v, after %+v", n, net.Alive(n), owns, c)
			}
		}
		if owners != 1 {
			t.Errorf("node %d owned by %d shards", n, owners)
		}
	}
}

// TestFederatedSystemPanel: the federated panel leads with per-shard
// traffic rows and the coordinator tier's backhaul line.
func TestFederatedSystemPanel(t *testing.T) {
	runRows(t, []row{{name: "shards=2", world: "demo", shards: 2, epochs: 4, queries: []rowQuery{{demoSQL, AlgoMINT}},
		checks: []check{panelNames("per-shard traffic", "shard-0", "shard-1", "total", "coordinator tier")}}})
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
	waitGoroutines(t, base)
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
// 1, 2 and 4 ways stays deterministic (the row's open agrees with the
// reference's, epoch for epoch and counter for counter), keeps shard 0's
// derived seed equal to the base seed, and routes every churn event to
// exactly the shard that owns the node.
func TestAutoShardFaultsAcrossShardCounts(t *testing.T) {
	faults := &FaultConfig{Seed: 23, Loss: 0.05, Churn: []ChurnEvent{{Node: 3, Epoch: 2, Down: true}, {Node: 9, Epoch: 4, Down: true}}}
	base := row{name: "shards=%[2]d", world: "demo", faults: faults, epochs: 8, queries: []rowQuery{{sql: demoSQL}},
		checks: []check{churnStrikesItsOwner, shard0KeepsBaseSeed}}
	runRows(t, grid(base, []Algorithm{AlgoAuto}, []int{1, 2, 4}, []int{1}))
}

// shard0KeepsBaseSeed: derived seeds are a pure function of (base, shard
// index), and shard 0 keeps the base seed whatever the count.
func shard0KeepsBaseSeed(t *testing.T, _ row, sys *System, _ outcome) {
	scen := sys.Scenario()
	if got := scen.ShardFaultSeed(scen.Faults.Seed, 0); got != scen.Faults.Seed {
		t.Fatalf("shard 0 seed %d, want base %d", got, scen.Faults.Seed)
	}
}
