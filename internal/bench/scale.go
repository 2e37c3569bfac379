package bench

import (
	"context"
	"testing"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/trace"
)

// This file is the scale series of the benchmark trajectory: µs of epoch
// compute per sensor node for a steady-state MINT epoch across deployment
// sizes (the road to scale-100k), plus the parallel-vs-sequential sweep
// speedup at scale-4000. The series runs every size at one sweep worker so
// the per-node trajectory stays comparable across hosts and PRs; the
// speedup entry re-measures scale-4000 at the configured worker bound.

// SpeedupScaleSize fixes the deployment of the parallel-vs-sequential
// speedup measurement: scale-4000, the largest committed scenario.
const SpeedupScaleSize = 4000

// LiveScaleSize fixes the deployment of the substrate comparison
// (live-mint-epoch against mint-epoch-scale-1000): scale-1000, the size the
// end-to-end benchmark's flat-sweep workload runs.
const LiveScaleSize = 1000

// ScaleSeriesSizes returns the deployment sizes of the µs-per-node-per-epoch
// scale series at the configured run scale. The two committed scenario sizes
// always run; the big fields are gated on -scale because their O(n²)
// disk-link construction dominates wall time (the epoch itself stays cheap):
// scale-16000 needs -scale ≥ 0.5 and scale-100000 the full -scale 1.
func ScaleSeriesSizes(cfg RunConfig) []int {
	sizes := []int{1000, 4000}
	s := cfg.Scale
	if s <= 0 || s > 1 {
		s = 1
	}
	if s >= 0.5 {
		sizes = append(sizes, 16000)
	}
	if s >= 1 {
		sizes = append(sizes, 100000)
	}
	return sizes
}

// scaleDeployment builds the flat scale-<n> deployment with the given sweep
// worker bound. Callers build it once per series entry and reuse it across
// benchmark rounds: the scale generator's O(n²) link construction costs
// minutes at scale-100000, far beyond the epochs being measured.
func scaleDeployment(n, workers int) (*sim.Network, trace.Source, topk.SnapshotQuery, error) {
	scen, err := config.ScaleScenario(n)
	if err != nil {
		return nil, nil, topk.SnapshotQuery{}, err
	}
	net, err := scen.Network()
	if err != nil {
		return nil, nil, topk.SnapshotQuery{}, err
	}
	net.SetParallel(workers)
	src, err := scen.Source()
	if err != nil {
		return nil, nil, topk.SnapshotQuery{}, err
	}
	q := topk.SnapshotQuery{K: 3, Agg: model.AggAvg, Range: soundRange()}
	return net, src, q, nil
}

// RunScaleMintEpochBenchOn is the measurement body of the scale-series
// benchmarks: a fresh MINT operator attaches to the prebuilt deployment —
// the network itself or, with live set, a fresh engine.Live over it (its
// history windows refuse the epochs a re-invocation would replay) — runs
// its creation epoch as warm-up, then b.N steady-state epochs are
// measured: the RunOperatorEpochBench loop with the network construction
// hoisted out of the benchmark re-invocations. Returns per-epoch tx bytes
// and messages.
func RunScaleMintEpochBenchOn(b *testing.B, net *sim.Network, live bool, src trace.Source, q topk.SnapshotQuery) (txBytesPerEpoch, msgsPerEpoch float64) {
	var tp engine.Transport = net
	if live {
		l := engine.NewLive(net, engine.LiveOptions{})
		l.Start(context.Background())
		defer l.Stop()
		tp = l
	}
	op := mint.New()
	if err := op.Attach(tp, q); err != nil {
		b.Fatal(err)
	}
	readings := topk.SenseEpoch(tp, src, 0)
	if _, err := op.Epoch(0, readings); err != nil {
		b.Fatal(err)
	}
	tp.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := model.Epoch(i + 1)
		rd := topk.SenseEpoch(tp, src, e)
		if _, err := op.Epoch(e, rd); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		total := tp.Snap()
		txBytesPerEpoch = float64(total.TxBytes) / float64(b.N)
		msgsPerEpoch = float64(total.Messages) / float64(b.N)
	}
	return txBytesPerEpoch, msgsPerEpoch
}

// RunScaleMintEpochBench builds scale-<n> at the worker bound and measures
// one steady-state MINT epoch — the module-root benchmark entry point (the
// -json path hoists the build out itself, see microScaleMintEpoch). With
// live set the operator runs on an engine.Live over the same network: the
// pair is the substrate comparison, same deployment, same epoch.
func RunScaleMintEpochBench(b *testing.B, n, workers int, live bool) (txBytesPerEpoch, msgsPerEpoch float64) {
	net, src, q, err := scaleDeployment(n, workers)
	if err != nil {
		b.Fatal(err)
	}
	return RunScaleMintEpochBenchOn(b, net, live, src, q)
}

// RunSenseEpochBench measures the sense half of an epoch alone on the flat
// scale-1000 deployment — PresampleEpoch then CommitSenseEpoch, exactly as
// a shard's EpochRound runs them — on the network itself or, with live
// set, on an engine.Live over it: the pair prices what the concurrent
// substrate's lock costs a phase that enters it a constant number of times
// per epoch. It restarts b's timer, so of several calls in one benchmark
// the last is the one reported; each returns its own ns per epoch.
func RunSenseEpochBench(b *testing.B, live bool) (nsPerEpoch float64) {
	net, src, _, err := scaleDeployment(LiveScaleSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	return RunSenseEpochBenchOn(b, net, live, src)
}

// RunSenseEpochBenchOn is RunSenseEpochBench on a prebuilt deployment.
func RunSenseEpochBenchOn(b *testing.B, net *sim.Network, live bool, src trace.Source) (nsPerEpoch float64) {
	var tp engine.Transport = net
	if live {
		l := engine.NewLive(net, engine.LiveOptions{})
		l.Start(context.Background())
		defer l.Stop()
		tp = l
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.StartTimer() // an earlier call in this benchmark left it stopped
	for i := 0; i < b.N; i++ {
		e := model.Epoch(i)
		engine.CommitSenseEpoch(tp, e, engine.PresampleEpoch(tp, src, e))
	}
	b.StopTimer()
	return float64(b.Elapsed().Nanoseconds()) / float64(max(b.N, 1))
}
