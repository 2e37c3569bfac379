package bench

import (
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
// at scale-4000, and the sense phase at scale-1000 (see Micros for how the
// entries are assembled).

// SpeedupScaleSize fixes the deployment of the parallel-vs-sequential
// speedup measurement: scale-4000, the largest committed scenario.
const SpeedupScaleSize = 4000

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

// usPerNode reports the measured loop's µs of epoch compute per sensor node.
func usPerNode(b *testing.B, net *sim.Network) {
	nodes := len(net.Topology().SensorNodes())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N)/float64(nodes), "us/node/epoch")
}

// scaleMintEpoch measures one steady-state MINT epoch on the flat scale-<n>
// deployment at the given sweep worker bound: runEpochs with the network
// construction hoisted out of the benchmark's re-invocations.
func scaleMintEpoch(n, workers int) func(*testing.B) {
	dep := scaleDeployment(n, workers)
	return func(b *testing.B) {
		d := dep(b)
		runEpochs(b, d.net, mint.New(), d.src, d.q)
		usPerNode(b, d.net)
	}
}

// senseEpoch measures the sense half of a scale-<n> epoch alone —
// PresampleEpoch then CommitSenseEpoch, exactly as a shard's EpochRound
// runs them.
func senseEpoch(n int) func(*testing.B) {
	dep := scaleDeployment(n, 1)
	return func(b *testing.B) {
		d := dep(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := model.Epoch(i)
			engine.CommitSenseEpoch(d.net, e, engine.PresampleEpoch(d.net, d.src, e))
		}
		b.StopTimer()
		usPerNode(b, d.net)
	}
}
