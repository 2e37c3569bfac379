package kspot

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/trace"
	"kspot/internal/wire"
)

// TestLiveCursorFigure1 posts a query on a concurrent System and checks it
// answers exactly, epoch after epoch.
func TestLiveCursorFigure1(t *testing.T) {
	sys, err := Open(Figure1Scenario(), WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.PostWith("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoMINT)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := cur.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Answers[0].Group != trace.Fig1RoomC || res.Answers[0].Score != 75 {
			t.Fatalf("epoch %d: %v, want (C,75)", res.Epoch, res.Answers)
		}
	}
}

// TestLiveMultiQuery is the multi-query acceptance path: one concurrent
// deployment serves several concurrently posted snapshot cursors, all
// sharing the epoch sweep, each stepped from its own goroutine.
func TestLiveMultiQuery(t *testing.T) {
	sys, err := Open(DemoScenario(), WithParallel(4))
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
		{"SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto},
	}
	cursors := make([]*Cursor, len(queries))
	for i, q := range queries {
		cur, err := sys.PostWith(q.sql, q.algo)
		if err != nil {
			t.Fatal(err)
		}
		cursors[i] = cur
	}

	const epochs = 6
	var wg sync.WaitGroup
	for i, cur := range cursors {
		wg.Add(1)
		go func(i int, cur *Cursor) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				res, err := cur.Step()
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if res.Epoch != Epoch(e) {
					t.Errorf("query %d: epoch %d at step %d (lock-step broken)", i, res.Epoch, e)
					return
				}
				if !res.Correct {
					t.Errorf("query %d epoch %d: %v vs exact %v", i, e, res.Answers, res.Exact)
					return
				}
			}
		}(i, cur)
	}
	wg.Wait()

	// The epoch sweep is shared: three cursors × 6 steps advanced one
	// deployment exactly 6 epochs, so a cursor posted now joins at epoch
	// 6 — it does not get a private clock starting at 0.
	late, err := sys.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoTAG)
	if err != nil {
		t.Fatal(err)
	}
	res, err := late.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != Epoch(epochs) {
		t.Fatalf("late cursor started at epoch %d, want %d (shared epoch clock)", res.Epoch, epochs)
	}
}

// TestLiveHistoricGroupQuery runs a node-local window-aggregate query on a
// concurrent System: answers must match the oracle over the derived
// readings (that the durable tier keeps recording the RAW sensed values,
// not the window aggregates the query's sweeps carry, is pinned on the
// store's tap by TestShardStackRecordsCommittedReadings).
func TestLiveHistoricGroupQuery(t *testing.T) {
	sys, err := Open(Figure1Scenario(), WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8")
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
// the same lossy+churning scenario stepped at Parallel 1 and at Parallel 4
// must produce identical answers and identical traffic, and churn must
// actually strike the concurrent deployment. The second row (named for the
// top-level shorthand it replaces) is the plain Bernoulli faults block
// seeded by the workload seed: it opens with the keyed environment armed,
// so its drops replay identically too.
func TestLiveFaultEquivalence(t *testing.T) {
	lossRate := DemoScenario()
	lossRate.Faults = &FaultConfig{Seed: lossRate.Workload.Seed, Loss: 0.1}
	for _, sc := range []struct {
		name  string
		open  func(OpenOption) (*System, error)
		churn bool
	}{
		{"lossy-churn", func(o OpenOption) (*System, error) { return OpenFile("scenarios/lossy-churn.json", o) }, true},
		{"loss_rate", func(o OpenOption) (*System, error) { return Open(lossRate, o) }, false},
	} {
		t.Run(sc.name, func(t *testing.T) {
			const epochs = 16
			run := func(live bool) ([]StepResult, sim.Snapshot) {
				sys, err := sc.open(legParallel(live))
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
				if sc.churn {
					// lossy-churn.json: node 5 dies at 6 and revives at 14;
					// node 11 dies at 10 for good.
					if sys.Network().Alive(11) {
						t.Errorf("live=%v: node 11 should be churned down after epoch 10", live)
					}
					if !sys.Network().Alive(5) {
						t.Errorf("live=%v: node 5 should be revived after epoch 14", live)
					}
				}
				return out, sys.Network().Snap()
			}
			det, detSnap := run(false)
			liv, livSnap := run(true)
			for e := range det {
				if !model.EqualAnswers(det[e].Answers, liv[e].Answers) {
					t.Fatalf("epoch %d: det %v, live %v", e, det[e].Answers, liv[e].Answers)
				}
			}
			if detSnap.Drops == 0 {
				t.Error("no frame was dropped: the fault environment is not armed")
			}
			if detSnap.Messages != livSnap.Messages || detSnap.TxBytes != livSnap.TxBytes || detSnap.Drops != livSnap.Drops {
				t.Errorf("traffic diverged: det %+v, live %+v", detSnap, livSnap)
			}
		})
	}
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
