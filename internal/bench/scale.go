package bench

import (
	"context"
	"sync"
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
// sizes (the road to scale-100k), the parallel-vs-sequential sweep speedup
// at scale-4000, and the substrate and sense pairs at scale-1000 (see
// Micros for how the entries are assembled).

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

// scaleDep is one flat scale-<n> deployment: the network at its sweep worker
// bound, the workload source and the TOP-3 AVG query the series runs.
type scaleDep struct {
	net *sim.Network
	src trace.Source
	q   topk.SnapshotQuery
}

// scaleDeployment returns the scale-<n> deployment at the worker bound,
// built on first use and shared by every invocation of the micro that holds
// it: the generator's O(n²) link construction costs minutes at
// scale-100000, far beyond the epochs being measured, and a benchmark body
// is re-invoked with a growing b.N.
func scaleDeployment(n, workers int) func(*testing.B) scaleDep {
	build := sync.OnceValues(func() (scaleDep, error) {
		scen, err := config.ScaleScenario(n)
		if err != nil {
			return scaleDep{}, err
		}
		net, err := scen.Network()
		if err != nil {
			return scaleDep{}, err
		}
		net.SetParallel(workers)
		src, err := scen.Source()
		q := topk.SnapshotQuery{K: 3, Agg: model.AggAvg, Range: soundRange()}
		return scaleDep{net, src, q}, err
	})
	return func(b *testing.B) scaleDep {
		d, err := build()
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
}

// substrate returns the transport a scale micro measures — the network
// itself or, with live set, a fresh engine.Live over it (its history
// windows refuse the epochs a re-invocation would replay) — and its stop.
func substrate(net *sim.Network, live bool) (engine.Transport, func()) {
	if !live {
		return net, func() {}
	}
	l := engine.NewLive(net, engine.LiveOptions{})
	l.Start(context.Background())
	return l, l.Stop
}

// usPerNode reports the measured loop's µs of epoch compute per sensor node.
func usPerNode(b *testing.B, net *sim.Network) {
	nodes := len(net.Topology().SensorNodes())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N)/float64(nodes), "us/node/epoch")
}

// scaleMintEpoch measures one steady-state MINT epoch on the flat scale-<n>
// deployment at the given sweep worker bound: runEpochs with the network
// construction hoisted out of the benchmark's re-invocations.
func scaleMintEpoch(n, workers int, live bool) func(*testing.B) {
	dep := scaleDeployment(n, workers)
	return func(b *testing.B) {
		d := dep(b)
		tp, stop := substrate(d.net, live)
		defer stop()
		runEpochs(b, tp, mint.New(), d.src, d.q)
		usPerNode(b, d.net)
	}
}

// senseEpoch measures the sense half of a scale-<n> epoch alone —
// PresampleEpoch then CommitSenseEpoch, exactly as a shard's EpochRound
// runs them — first on the network itself, then on an engine.Live over it.
// The live loop is the one timed; live/sim prices what the concurrent
// substrate's lock costs a phase that enters it a constant number of times
// per epoch, so it should sit near 1 (plus the history windows' pushes).
func senseEpoch(n int) func(*testing.B) {
	dep := scaleDeployment(n, 1)
	return func(b *testing.B) {
		d := dep(b)
		loop := func(live bool) float64 {
			tp, stop := substrate(d.net, live)
			defer stop()
			b.ReportAllocs()
			b.ResetTimer()
			b.StartTimer() // the first loop left it stopped
			for i := 0; i < b.N; i++ {
				e := model.Epoch(i)
				engine.CommitSenseEpoch(tp, e, engine.PresampleEpoch(tp, d.src, e))
			}
			b.StopTimer()
			return float64(b.Elapsed().Nanoseconds())
		}
		onSim := loop(false)
		if onLive := loop(true); onSim > 0 {
			b.ReportMetric(onLive/onSim, "live/sim")
		}
		usPerNode(b, d.net)
	}
}
