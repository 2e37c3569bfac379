package kspot

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"kspot/internal/trace"
	"kspot/internal/wire"
)

// TestLiveCursorFigure1 posts a query on a concurrent System and checks it
// answers the paper's worked example exactly, epoch after epoch.
func TestLiveCursorFigure1(t *testing.T) {
	runRows(t, []row{{name: "figure1", world: "figure1", parallel: 2, epochs: 5,
		queries: []rowQuery{{"SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoMINT}},
		checks:  []check{figure1Answer}}})
}

// figure1Answer: the query is continuous and every epoch ranks room C
// first at 75.
func figure1Answer(t *testing.T, _ row, _ *System, got outcome) {
	if len(got.steps) != 1 {
		t.Fatalf("%d continuous queries, want the one snapshot query", len(got.steps))
	}
	for _, res := range got.steps[0] {
		if res.Answers[0].Group != trace.Fig1RoomC || res.Answers[0].Score != 75 {
			t.Fatalf("epoch %d: %v, want (C,75)", res.Epoch, res.Answers)
		}
	}
}

// TestLiveMultiQuery is the multi-query acceptance path: one concurrent
// deployment serves several snapshot cursors, all sharing the epoch sweep,
// each stepped from its own goroutine.
func TestLiveMultiQuery(t *testing.T) {
	runRows(t, []row{{name: "three-cursors", world: "demo", parallel: 4, epochs: 6, concurrent: true,
		queries: []rowQuery{{demoSQL, AlgoMINT}, {"SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid", AlgoTAG},
			{"SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto}},
		checks: []check{lateCursorJoins}}})
}

// lateCursorJoins: the epoch sweep is shared, so a cursor posted after
// the run joins at the deployment's epoch — it does not get a private
// clock starting at 0.
func lateCursorJoins(t *testing.T, r row, sys *System, _ outcome) {
	late, err := sys.PostWith(demoSQL, AlgoTAG)
	if err != nil {
		t.Fatal(err)
	}
	res, err := late.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != Epoch(r.epochs) {
		t.Fatalf("late cursor started at epoch %d, want %d (shared epoch clock)", res.Epoch, r.epochs)
	}
}

// TestLiveHistoricGroupQuery runs a node-local window-aggregate query on a
// concurrent System: answers must match the oracle over the derived
// readings (that the durable tier keeps recording the RAW sensed values,
// not the window aggregates the query's sweeps carry, is pinned on the
// store's tap by TestShardStackRecordsCommittedReadings).
func TestLiveHistoricGroupQuery(t *testing.T) {
	runRows(t, []row{{name: "figure1", world: "figure1", parallel: 2, epochs: 4,
		queries: []rowQuery{{"SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8", AlgoAuto}}}})
}

// TestStepAfterClose: closing the system must turn later Steps into
// errors, not panics.
func TestStepAfterClose(t *testing.T) {
	sys, err := Open(Figure1Scenario(), WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Step(); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if _, err := cur.Step(); err == nil {
		t.Fatal("Step after Close succeeded")
	}
	sys.Close() // idempotent
}

// TestLiveFaultEquivalence pins the fault layer through the public API:
// the same lossy+churning scenario stepped at Parallel 4 produces the
// Parallel 1 answers and traffic, and churn strikes the concurrent
// deployment. The second row (named for the top-level shorthand it
// replaces) is the plain Bernoulli faults block seeded by the workload
// seed: it opens with the keyed environment armed, so its drops replay
// identically too.
func TestLiveFaultEquivalence(t *testing.T) {
	q := []rowQuery{{sql: demoSQL}}
	runRows(t, []row{
		{name: "lossy-churn", world: "scenarios/lossy-churn.json", parallel: 4, epochs: 16, queries: q, checks: []check{churnStrikesItsOwner}},
		{name: "loss_rate", world: "demo", parallel: 4, epochs: 16, queries: q,
			faults: &FaultConfig{Seed: DemoScenario().Workload.Seed, Loss: 0.1}},
	})
}

// TestStepContextCancelNoLeak is the cancellation contract of a concurrent
// local System and over a remote shard: cancelling a StepContext mid-epoch
// returns promptly, the abandoned epoch finishes on the deployment's own
// goroutines and is re-buffered (the epoch stream stays gapless), and Close
// releases every goroutine — nothing leaks.
func TestStepContextCancelNoLeak(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	t.Run("live", func(t *testing.T) {
		base := runtime.NumGoroutine()
		sys, err := Open(DemoScenario(), WithParallel(2))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel concurrently with an in-flight step: the race goes either way.
		stepCancelled(t, cur, 0, func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			go cancel()
			return ctx
		})
		sys.Close()
		waitGoroutines(t, base)
	})
	// A remote shard is one more input: the round is held on the socket by
	// an injected link delay, so every cancel lands mid-round — and must
	// return at once, not when the round trip completes.
	t.Run("wire", func(t *testing.T) {
		base := runtime.NumGoroutine()
		const hold = 40 * time.Millisecond // each way: a round takes 2×hold
		addrs, servers := startWireShards(t, DemoScenario(), 0)
		sys, err := OpenFederated(DemoScenario(), addrs, withWireFaults(wire.Faults{LinkDelay: hold}))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		stepCancelled(t, cur, hold, func() context.Context {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			t.Cleanup(cancel)
			return ctx
		})
		sys.Close()
		servers[0].Close()
		waitGoroutines(t, base)
	})
}

// stepCancelled is the cancel-mid-epoch body: one clean step, then a run of
// StepContexts under contexts that expire while the epoch is (or may be)
// in flight. Each cancelled epoch must be re-buffered — never lost or
// duplicated — so the successes, and the plain Step that follows, observe
// the epoch stream without a gap. promptly > 0 also bounds how long a
// cancelled call may take to return.
func stepCancelled(t *testing.T, cur *Cursor, promptly time.Duration, expiring func() context.Context) {
	t.Helper()
	if _, err := cur.StepContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	next := Epoch(1)
	for i := 0; i < 50; i++ {
		start := time.Now()
		res, err := cur.StepContext(expiring())
		switch {
		case err == nil:
			if res.Epoch != next {
				t.Fatalf("iteration %d: epoch %d, want %d (stream must stay gapless)", i, res.Epoch, next)
			}
			next++
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Abandoned; the epoch (if one ran) is re-buffered.
			if took := time.Since(start); promptly > 0 && took > promptly {
				t.Fatalf("iteration %d: cancelled step returned after %v, want under %v", i, took, promptly)
			}
		default:
			t.Fatal(err)
		}
	}
	res, err := cur.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != next {
		t.Fatalf("post-cancel step saw epoch %d, want %d", res.Epoch, next)
	}
}

// waitGoroutines waits for every goroutine a closed deployment owned —
// scheduler hand-backs, wire readers, delayed deliveries — to exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseConcurrentWithSteps: System.Close must be safe to call while
// Steps are in flight — in-flight epochs complete, later Steps error, and
// nothing deadlocks or races.
func TestCloseConcurrentWithSteps(t *testing.T) {
	sys, err := Open(DemoScenario(), WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := cur.Step(); err != nil {
				return // closed under us — the expected exit
			}
		}
		t.Error("200 steps completed without observing Close")
	}()
	sys.Close()
	sys.Close() // idempotent, concurrently with the stepping goroutine
	wg.Wait()
	if _, err := cur.Step(); err == nil {
		t.Fatal("Step after concurrent Close succeeded")
	}
}

// TestCaptureStatsDuringAbandonedEpoch: a cancelled StepContext returns at
// once while its epoch finishes behind it, charging the shard's ledger and
// counters; a CaptureStats issued right after must read them under the
// network's lock, not beside the abandoned epoch (run under -race).
func TestCaptureStatsDuringAbandonedEpoch(t *testing.T) {
	scen, err := ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(scen, WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		if _, err := cur.StepContext(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		if st := sys.CaptureStats("abandoned", i); st.Epochs != i {
			t.Fatalf("CaptureStats labelled %d epochs, want %d", st.Epochs, i)
		}
	}
}
