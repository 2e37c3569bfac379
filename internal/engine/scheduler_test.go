package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tag"
)

// TestSchedulerSharedEpochs runs two queries on one concurrent deployment:
// they must advance in epoch lock-step, both answer exactly, and sensing
// must be charged once per epoch, not once per query.
func TestSchedulerSharedEpochs(t *testing.T) {
	scen := config.Figure3Scenario()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	net.SetParallel(2)
	sched := engine.NewScheduler(engine.NewDeployment("figure3", net, src))
	q1 := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	q2 := topk.SnapshotQuery{K: 3, Agg: model.AggMax, Range: &topk.ValueRange{Min: 0, Max: 100}}
	op1 := mint.New()
	if err := op1.Attach(net, q1); err != nil {
		t.Fatal(err)
	}
	op2 := tag.New()
	if err := op2.Attach(net, q2); err != nil {
		t.Fatal(err)
	}
	sq1 := sched.Add([]engine.EpochRunner{op1}, nil, nil)
	sq2 := sched.Add([]engine.EpochRunner{op2}, nil, nil)

	const epochs = 8
	var wg sync.WaitGroup
	step := func(sq *engine.ScheduledQuery, q topk.SnapshotQuery, name string) {
		defer wg.Done()
		for i := 0; i < epochs; i++ {
			out, err := sched.Step(sq)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if out.Epoch != model.Epoch(i) {
				t.Errorf("%s: outcome epoch %d at step %d", name, out.Epoch, i)
				return
			}
			exact := topk.ExactSnapshot(out.Readings, q)
			if !model.EqualAnswers(out.Answers, exact) {
				t.Errorf("%s epoch %d: answers %v, exact %v", name, i, out.Answers, exact)
				return
			}
		}
	}
	// Step both cursors concurrently — the scheduler serializes epochs,
	// the deployment runs both acquisitions at once over the one network.
	wg.Add(2)
	go step(sq1, q1, "mint-k2")
	go step(sq2, q2, "tag-k3-max")
	wg.Wait()

	if got := sched.Epoch(); got != epochs {
		t.Fatalf("scheduler advanced %d epochs for two %d-step cursors, want %d (shared sweep)", got, epochs, epochs)
	}
	// Sensing charged once per epoch: 14 sensors × 8 epochs.
	sensors := len(net.Placement.SensorNodes())
	wantSense := float64(sensors*epochs) * net.Energy.SenseCost
	idle := float64(sensors*epochs) * net.Energy.IdlePerEpoch
	minLedger := wantSense + idle
	if total := net.Ledger.Total(); total < minLedger {
		t.Fatalf("ledger %v below sensing+idle floor %v", total, minLedger)
	}
}

// TestStepContextPopsBufferedInline pins the lock-step serving path: a
// StepContext whose outcome another query's step already buffered returns
// it inline — no goroutine, no channels, so it allocates nothing — and the
// buffered epochs still arrive gapless and in order.
func TestStepContextPopsBufferedInline(t *testing.T) {
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
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	var sqs [2]*engine.ScheduledQuery
	for i := range sqs {
		op := tag.New()
		if err := op.Attach(net, q); err != nil {
			t.Fatal(err)
		}
		sqs[i] = sched.Add([]engine.EpochRunner{op}, nil, nil)
	}
	const epochs = 20
	for i := 0; i < epochs; i++ {
		if _, err := sched.Step(sqs[0]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	next := model.Epoch(0)
	allocs := testing.AllocsPerRun(epochs-1, func() { // plus its warm-up run: every buffered epoch
		out, err := sched.StepContext(ctx, sqs[1])
		if err != nil || out.Epoch != next {
			t.Fatalf("buffered step returned epoch %d (err %v), want %d", out.Epoch, err, next)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("popping a buffered outcome allocates %.0f times, want 0", allocs)
	}
	if got := sched.Epoch(); got != epochs {
		t.Fatalf("scheduler ran %d epochs, want %d: a buffered pop must not run one", got, epochs)
	}
}

// TestSchedulerLaggingSeatStopsBuffering: a seat nobody steps buffers at
// most MaxPending outcomes. Past that it stops buffering, still yields what
// it holds in order, then fails every Step with a LagError naming the first
// epoch it missed — without running an epoch. The seat stepping beside it
// and a seat scheduled later step on, exact; Close still refuses it.
func TestSchedulerLaggingSeatStopsBuffering(t *testing.T) {
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
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	seat := func() *engine.ScheduledQuery {
		op := tag.New()
		if err := op.Attach(net, q); err != nil {
			t.Fatal(err)
		}
		return sched.Add([]engine.EpochRunner{op}, nil, nil)
	}
	step := func(sq *engine.ScheduledQuery, want model.Epoch) {
		t.Helper()
		out, err := sched.Step(sq)
		if err != nil || out.Epoch != want || !out.Oracle.Matches(q.Agg, q.K, out.Answers) {
			t.Fatalf("step: epoch %d (err %v), want epoch %d answered exactly", out.Epoch, err, want)
		}
	}
	busy, idle := seat(), seat()
	const ahead = engine.MaxPending + 10
	for e := model.Epoch(0); e < ahead; e++ {
		step(busy, e)
	}
	for e := model.Epoch(0); e < engine.MaxPending; e++ {
		step(idle, e)
	}
	for i := 0; i < 2; i++ {
		var lag *engine.LagError
		if _, err := sched.Step(idle); !errors.As(err, &lag) || lag.Epoch != engine.MaxPending {
			t.Fatalf("drained lagging seat: %v, want a LagError at epoch %d", err, engine.MaxPending)
		}
	}
	if got := sched.Epoch(); got != ahead {
		t.Fatalf("scheduler at epoch %d, want %d: a lagging seat must not run epochs", got, ahead)
	}
	late := seat()
	for e := model.Epoch(ahead); e < ahead+3; e++ {
		step(busy, e)
		step(late, e)
	}
	sched.Close()
	if _, err := sched.Step(idle); err == nil || errors.As(err, new(*engine.LagError)) {
		t.Fatalf("lagging seat after Close: %v, want the closed error", err)
	}
}
