package engine_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/topk/mint"
)

// fedSetup builds a sharded Figure-3 deployment, concurrent (Parallel 4)
// when live is set: per-shard networks sharing the flat trace source, MINT
// attached per shard, and a fed merger.
func fedSetup(t *testing.T, live bool) (deps []*engine.Deployment, ops []engine.EpochRunner, merge engine.MergeFunc) {
	t.Helper()
	scen := config.Figure3Scenario()
	if err := scen.AutoShard(2); err != nil {
		t.Fatal(err)
	}
	subs, err := scen.ShardScenarios()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	for i, sub := range subs {
		net, err := sub.Network()
		if err != nil {
			t.Fatal(err)
		}
		if live {
			net.SetParallel(4)
		}
		op := mint.New()
		if err := op.Attach(net, q); err != nil {
			t.Fatal(err)
		}
		deps = append(deps, engine.NewDeployment(scen.ShardName(i), net, src))
		ops = append(ops, op)
	}
	m, err := fed.New(q, fed.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return deps, ops, m.Merge
}

// TestCoordinatorFederatedEpochs: a 2-shard Figure-3 deployment must
// answer every epoch identically to the flat oracle over the union of the
// shards' readings, sequential and concurrent.
func TestCoordinatorFederatedEpochs(t *testing.T) {
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	for _, live := range []bool{false, true} {
		t.Run(fmt.Sprintf("live=%v", live), func(t *testing.T) {
			deps, ops, merge := fedSetup(t, live)
			sched := engine.NewScheduler(deps...)
			defer sched.Close()
			sq := sched.Add(ops, merge, nil)
			for e := model.Epoch(0); e < 10; e++ {
				out, err := sched.Step(sq)
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if out.Epoch != e {
					t.Fatalf("step %d delivered epoch %d", e, out.Epoch)
				}
				exact := topk.ExactSnapshot(out.Readings, q)
				if !model.EqualAnswers(out.Answers, exact) {
					t.Fatalf("epoch %d: federated %v, oracle %v", e, out.Answers, exact)
				}
			}
		})
	}
}

// errorRunner fails every epoch — the stand-in for a shard whose
// transport dies mid-sweep.
type errorRunner struct{}

func (errorRunner) Epoch(model.Epoch, map[model.NodeID]model.Reading) ([]model.Answer, error) {
	return nil, errors.New("transport failed mid-sweep")
}

// okRunner answers a fixed ranking.
type okRunner struct{ g model.GroupID }

func (r okRunner) Epoch(model.Epoch, map[model.NodeID]model.Reading) ([]model.Answer, error) {
	return []model.Answer{{Group: r.g, Score: 1}}, nil
}

// TestSchedulerShardErrorPropagation: a query whose shard fails mid-sweep
// must surface the error on its own cursor, while the lock-step
// keeps serving the healthy query — no wedge, no cross-contamination.
func TestSchedulerShardErrorPropagation(t *testing.T) {
	scen := config.Figure1Scenario()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	sched := engine.NewScheduler(engine.NewDeployment("solo", net, src))
	bad := sched.Add([]engine.EpochRunner{errorRunner{}}, nil, nil)
	good := sched.Add([]engine.EpochRunner{okRunner{g: 3}}, nil, nil)

	for i := 0; i < 4; i++ {
		if _, err := sched.Step(bad); err == nil {
			t.Fatalf("step %d: failing shard did not surface its error", i)
		}
		out, err := sched.Step(good)
		if err != nil {
			t.Fatalf("step %d: healthy query wedged by the failing one: %v", i, err)
		}
		if out.Epoch != model.Epoch(i) || len(out.Answers) != 1 || out.Answers[0].Group != 3 {
			t.Fatalf("step %d: healthy outcome %+v", i, out)
		}
	}
	// The lock-step advanced one epoch per paired step, not two.
	if got := sched.Epoch(); got != 4 {
		t.Fatalf("scheduler advanced %d epochs, want 4", got)
	}
}

// slowRunner blocks each epoch until released, so a test can hold an
// epoch in flight while it cancels a StepContext.
type slowRunner struct {
	enter chan struct{}
	gate  chan struct{}
}

func (r *slowRunner) Epoch(e model.Epoch, _ map[model.NodeID]model.Reading) ([]model.Answer, error) {
	r.enter <- struct{}{}
	<-r.gate
	return []model.Answer{{Group: model.GroupID(e + 1), Score: model.Value(e)}}, nil
}

// TestSchedulerStepContext: a cancelled StepContext returns promptly, the
// in-flight epoch completes in the background, and its outcome is
// re-buffered — the next Step sees the epoch stream without a gap — on a
// sequential deployment and on a concurrent (pipelining) one alike.
func TestSchedulerStepContext(t *testing.T) {
	for _, live := range []bool{true, false} {
		t.Run(fmt.Sprintf("live=%v", live), func(t *testing.T) {
			scen := config.Figure1Scenario()
			net, err := scen.Network()
			if err != nil {
				t.Fatal(err)
			}
			src, err := scen.Source()
			if err != nil {
				t.Fatal(err)
			}
			if live {
				net.SetParallel(4)
			}
			sched := engine.NewScheduler(engine.NewDeployment("solo", net, src))
			defer sched.Close()
			r := &slowRunner{enter: make(chan struct{}, 1), gate: make(chan struct{})}
			sq := sched.Add([]engine.EpochRunner{r}, nil, nil)

			ctx, cancel := context.WithCancel(context.Background())
			type res struct {
				out engine.Outcome
				err error
			}
			done := make(chan res, 1)
			go func() {
				out, err := sched.StepContext(ctx, sq)
				done <- res{out, err}
			}()
			<-r.enter // epoch 0 is in flight
			cancel()
			if got := <-done; !errors.Is(got.err, context.Canceled) {
				t.Fatalf("cancelled StepContext returned %v", got.err)
			}
			close(r.gate) // let the abandoned epoch finish in the background

			// The next Steps must observe the stream without a gap: epoch 0
			// re-buffered when it was abandoned, then epoch 1.
			for want := model.Epoch(0); want < 2; want++ {
				out, err := sched.StepContext(context.Background(), sq)
				if err != nil {
					t.Fatal(err)
				}
				if out.Epoch != want {
					t.Fatalf("post-cancel step saw epoch %d, want %d (gapless re-buffering)", out.Epoch, want)
				}
			}
		})
	}
}

// TestSchedulerRebufferedOutcomeScores: the outcome a cancelled StepContext
// hands back is re-buffered whole — the Step that finally consumes it
// scores against the epoch's own oracle, the one a lagging seat's buffered
// outcome of the same epoch still points at — and a queue that was pushed
// to and popped from keeps delivering epochs in order.
func TestSchedulerRebufferedOutcomeScores(t *testing.T) {
	scen := config.Figure3Scenario()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	sched := engine.NewScheduler(engine.NewDeployment("figure3", net, src))
	defer sched.Close()
	const epochs = 3
	r := &slowRunner{enter: make(chan struct{}, epochs), gate: make(chan struct{})}
	sq := sched.Add([]engine.EpochRunner{r}, nil, nil)
	lagging := sched.Add([]engine.EpochRunner{okRunner{g: 1}}, nil, nil)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sched.StepContext(ctx, sq)
		done <- err
	}()
	<-r.enter // epoch 0 is in flight
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled StepContext returned %v", err)
	}
	close(r.gate) // epoch 0 finishes behind the caller and is handed back

	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg}
	oracles := make([]*engine.Oracle, epochs)
	for e := range oracles {
		out, err := sched.Step(sq)
		if err != nil {
			t.Fatal(err)
		}
		if out.Epoch != model.Epoch(e) {
			t.Fatalf("step %d delivered epoch %d", e, out.Epoch)
		}
		want := topk.ExactSnapshot(out.Readings, q)
		if got := out.Oracle.Exact(q.Agg, q.K); len(want) != q.K || !model.EqualAnswers(got, want) {
			t.Fatalf("epoch %d: oracle %v, ExactSnapshot %v", e, got, want)
		}
		oracles[e] = out.Oracle
	}
	for e := range oracles {
		out, err := sched.Step(lagging)
		if err != nil {
			t.Fatal(err)
		}
		if out.Epoch != model.Epoch(e) || out.Oracle != oracles[e] {
			t.Fatalf("lagging step %d: epoch %d, shares the epoch's oracle: %v", e, out.Epoch, out.Oracle == oracles[e])
		}
	}
}

// TestSchedulerControlPlaneHandOff: a Schedule (and the Remove after it)
// issued while another goroutine steps flat out gets the epoch lock within a
// few epochs. A saturated stepper re-takes the lock within nanoseconds of
// releasing it, so without the hand-off a control-plane caller waits out the
// mutex's 1 ms starvation threshold — or, on one processor, the 10 ms
// preemption tick — which at this epoch length is hundreds of epochs. The
// median is pinned, not the maximum: the host may take the waiter's thread
// away for longer than that at any time.
func TestSchedulerControlPlaneHandOff(t *testing.T) {
	scen := config.Figure1Scenario()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	sched := engine.NewScheduler(engine.NewDeployment("solo", net, src))
	defer sched.Close()
	sq := sched.Add([]engine.EpochRunner{okRunner{g: 1}}, nil, nil)

	var epoch atomic.Int64 // the last epoch the stepper consumed
	stop := make(chan struct{})
	stepped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				stepped <- nil
				return
			default:
			}
			out, err := sched.Step(sq)
			if err != nil {
				stepped <- err
				return
			}
			epoch.Store(int64(out.Epoch))
		}
	}()
	const posts, bound = 51, 8
	waited := make([]int64, posts)
	for i := range waited {
		// A post arrives from outside, on a stepper that is at speed: were
		// this loop to come straight back it would be the saturated one.
		for at := epoch.Load(); epoch.Load() < at+32; {
			time.Sleep(50 * time.Microsecond)
		}
		before := epoch.Load()
		seat := sched.Schedule(engine.QuerySpec{Key: "shared", Ops: []engine.EpochRunner{okRunner{g: 2}}})
		sched.Remove(seat)
		waited[i] = epoch.Load() - before
	}
	close(stop)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	slices.Sort(waited)
	if median := waited[posts/2]; median > bound {
		t.Fatalf("a Schedule+Remove beside a saturated stepper waited %d epochs in the median (max %d), want at most %d", median, waited[posts-1], bound)
	}
	t.Logf("Schedule+Remove beside a saturated stepper: median %d epochs, max %d", waited[posts/2], waited[posts-1])
}

// TestSchedulerStepContextExpired: an already-expired context never runs
// a fresh epoch for nothing — no work starts, no energy is charged, and
// the epoch stream still begins at 0 for the next live Step.
func TestSchedulerStepContextExpired(t *testing.T) {
	scen := config.Figure1Scenario()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	sched := engine.NewScheduler(engine.NewDeployment("solo", net, src))
	sq := sched.Add([]engine.EpochRunner{okRunner{g: 1}}, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if _, err := sched.StepContext(ctx, sq); !errors.Is(err, context.Canceled) {
			t.Fatalf("expired StepContext returned %v", err)
		}
	}
	if sched.Epoch() != 0 {
		t.Fatalf("expired StepContexts advanced the epoch clock to %d", sched.Epoch())
	}
	if total := net.Ledger.Total(); total != 0 {
		t.Fatalf("expired StepContexts charged %v µJ of energy", total)
	}
	out, err := sched.Step(sq)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 0 {
		t.Fatalf("epoch stream began at %d after expired StepContexts, want 0", out.Epoch)
	}
}
