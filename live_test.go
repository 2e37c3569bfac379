package kspot

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/trace"
	"kspot/internal/wire"
)

// TestLiveCursorFigure1 posts a query on the concurrent substrate and
// checks it answers exactly, epoch after epoch.
func TestLiveCursorFigure1(t *testing.T) {
	sys, err := Open(Figure1Scenario())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.PostWith("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoMINT, WithLive())
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Live() {
		t.Fatal("cursor not live")
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

// TestLiveMultiQuery is the multi-query acceptance path: one live
// deployment serves several concurrently posted snapshot cursors, all
// sharing the epoch sweep, each stepped from its own goroutine.
func TestLiveMultiQuery(t *testing.T) {
	sys, err := Open(DemoScenario())
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
		cur, err := sys.PostWith(q.sql, q.algo, WithLive())
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
	late, err := sys.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoTAG, WithLive())
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

// TestLiveHistoricGroupQuery runs a node-local window-aggregate query on
// the live substrate: answers must match the oracle over the derived
// readings (that the durable tier keeps recording the RAW sensed values,
// not the window aggregates the query's sweeps carry, is pinned on the
// store's tap by TestShardStackRecordsCommittedReadings).
func TestLiveHistoricGroupQuery(t *testing.T) {
	sys, err := Open(Figure1Scenario())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8", WithLive())
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

// TestStepAfterClose: closing the system must turn later live Steps into
// errors, not panics.
func TestStepAfterClose(t *testing.T) {
	sys, err := Open(Figure1Scenario())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", WithLive())
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
// the same lossy+churning scenario stepped on the deterministic substrate
// and on the concurrent live substrate must produce identical answers and
// identical traffic, and churn must actually strike the live deployment
// (a regression test for live cursors attaching below the fault injector,
// where churn silently never fired). The second row is the top-level
// loss_rate field: it opens with the keyed Bernoulli environment armed, so
// its drops replay identically too.
func TestLiveFaultEquivalence(t *testing.T) {
	lossRate := DemoScenario()
	lossRate.Loss = 0.1
	for _, sc := range []struct {
		name  string
		open  func() (*System, error)
		churn bool
	}{
		{"lossy-churn", func() (*System, error) { return OpenFile("scenarios/lossy-churn.json") }, true},
		{"loss_rate", func() (*System, error) { return Open(lossRate) }, false},
	} {
		t.Run(sc.name, func(t *testing.T) {
			const epochs = 16
			run := func(live bool) ([]StepResult, sim.Snapshot) {
				sys, err := sc.open()
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				var opts []PostOption
				if live {
					opts = append(opts, WithLive())
				}
				cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", opts...)
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

// TestStepContextCancelNoLeak is the cancellation contract of the live
// substrate and over a remote shard: cancelling a StepContext mid-epoch
// returns promptly, the abandoned epoch finishes on the deployment's own
// goroutines and is re-buffered (the epoch stream stays gapless), and Close
// releases every goroutine — nothing leaks.
func TestStepContextCancelNoLeak(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	t.Run("live", func(t *testing.T) {
		base := runtime.NumGoroutine()
		sys, err := Open(DemoScenario())
		if err != nil {
			t.Fatal(err)
		}
		cur, err := sys.Post(sql, WithLive())
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
// live Steps are in flight — in-flight epochs complete, later Steps error,
// and nothing deadlocks or races.
func TestCloseConcurrentWithSteps(t *testing.T) {
	sys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", WithLive())
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

// TestSystemOneSubstrate pins one substrate per System: the first post
// binds it, a post asking for the other one is refused before admission
// (it consumes no slot), and the bound System lives one epoch clock — its
// durable tier ends at the last stepped epoch and its counters equal a
// single-substrate run of the same epochs.
func TestSystemOneSubstrate(t *testing.T) {
	const (
		sql    = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
		epochs = 5
	)
	step := func(t *testing.T, cur *Cursor) {
		t.Helper()
		for i := 0; i < epochs; i++ {
			if _, err := cur.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rcur, err := ref.Post(sql)
	if err != nil {
		t.Fatal(err)
	}
	step(t, rcur)
	want := ref.CaptureStats("run", epochs)

	for _, tc := range []struct {
		name        string
		first, then []PostOption
	}{
		{"deterministic-first", nil, []PostOption{WithLive()}},
		{"live-first", []PostOption{WithLive()}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Open(DemoScenario(), WithDataDir(t.TempDir()), WithAdmission(AdmissionConfig{MaxQueries: 8}))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			cur, err := sys.Post(sql, tc.first...)
			if err != nil {
				t.Fatal(err)
			}
			step(t, cur)
			before, _ := sys.AdmissionLoad()
			if other, err := sys.Post(sql, tc.then...); err == nil {
				other.Close()
				t.Fatal("a post on the other substrate succeeded on a bound System")
			}
			if after, _ := sys.AdmissionLoad(); after != before {
				t.Fatalf("rejected post moved the admission load %d -> %d", before, after)
			}
			blocks, err := sys.StorageStats()
			if err != nil {
				t.Fatal(err)
			}
			if !blocks[0].HasEpoch || blocks[0].LastEpoch != epochs-1 {
				t.Fatalf("durable tier ends at epoch %d (has=%v), want %d", blocks[0].LastEpoch, blocks[0].HasEpoch, epochs-1)
			}
			if got := sys.CaptureStats("run", epochs); !reflect.DeepEqual(got, want) {
				t.Fatalf("counters diverged from the single-substrate run:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
