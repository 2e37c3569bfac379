package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"kspot/internal/model"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tag"
)

// This file is the machine-readable side of the harness: kspot-bench -json
// appends one named run — micro-benchmark numbers (ns/op, allocs/op, plus
// the domain metrics tx_bytes and messages per epoch) and per-experiment
// timings — to the JSON trajectory file (BENCH.json). Runs already recorded
// are preserved on re-generation, so the committed file accumulates a
// benchmark history the way EXPERIMENTS.md accumulates tables.

// MicroResult is one micro-benchmark's measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	// Domain metrics, for the operator-epoch benchmarks: what one epoch
	// costs the network, independent of host speed.
	TxBytesPerEpoch float64 `json:"tx_bytes_per_epoch,omitempty"`
	MsgsPerEpoch    float64 `json:"msgs_per_epoch,omitempty"`
	// CoordBytesPerEpoch is the coordinator tier's backhaul, for the
	// federated epoch benchmark.
	CoordBytesPerEpoch float64 `json:"coord_bytes_per_epoch,omitempty"`
	// QueriesPerSec and SubscribersPerSec are the multi-tenant serving
	// axes: sustained query steps per second of the shared-acquisition
	// scheduler, and sustained subscriber-deliveries per second of the
	// streaming hub (see internal/bench/serving.go).
	QueriesPerSec     float64 `json:"queries_per_sec,omitempty"`
	SubscribersPerSec float64 `json:"subscribers_per_sec,omitempty"`
	// RoundsPerEpoch and WireBytesPerEpoch are the federated wire-protocol
	// axes (see internal/bench/wire.go): RPC round trips and frame bytes
	// (both directions) one coordinator epoch costs per shard — the
	// epoch-round protocol holds rounds at 1 whatever the group count.
	RoundsPerEpoch    float64 `json:"rounds_per_epoch,omitempty"`
	WireBytesPerEpoch float64 `json:"wire_bytes_per_epoch,omitempty"`
	// RecoveryMs and ReshardingDowntimeEpochs are the durable-tier axes
	// (see internal/bench/durability.go): wall milliseconds to recover a
	// full RecoveryNodes-node store from its shard log, and mean lock-step epochs
	// one live re-sharding migration leaves running on the old deployment
	// (a pointer so a measured 0 — a cutover faster than one epoch —
	// still serializes).
	RecoveryMs               float64  `json:"recovery_ms,omitempty"`
	ReshardingDowntimeEpochs *float64 `json:"resharding_downtime_epochs,omitempty"`
	// UsPerNodePerEpoch and Workers annotate the scale-series entries —
	// µs of epoch compute per sensor node, and the sweep worker bound the
	// entry ran at. Deliberately not omitempty: they serialize as null on
	// micros where they do not apply and on runs recorded before PR 6, so
	// the trajectory file carries the schema change visibly.
	UsPerNodePerEpoch *float64 `json:"us_per_node_per_epoch"`
	Workers           *int     `json:"workers"`
}

// ExperimentTiming is one harness experiment's single-run measurement.
type ExperimentTiming struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	NsPerOp     int64  `json:"ns_op"`
	AllocsPerOp uint64 `json:"allocs_op"`
	BytesPerOp  uint64 `json:"bytes_op"`
}

// Run is one recorded benchmark pass (one PR's entry in the trajectory).
type Run struct {
	Recorded    string             `json:"recorded"`
	Source      string             `json:"source"`
	Scale       float64            `json:"scale"`
	Micro       []MicroResult      `json:"micro"`
	Experiments []ExperimentTiming `json:"experiments,omitempty"`
}

// File is the whole trajectory file.
type File struct {
	GeneratedBy string         `json:"generated_by"`
	Note        string         `json:"note"`
	Runs        map[string]Run `json:"runs"`
}

// WriteJSON measures the current build (micro-benchmarks at full size,
// experiments at cfg.Scale) and merges the result into path under runName,
// preserving every other recorded run.
func WriteJSON(w io.Writer, path, runName string, cfg RunConfig) error {
	run := Run{
		Recorded: time.Now().UTC().Format(time.RFC3339),
		Source:   "kspot-bench -json",
		Scale:    cfg.Scale,
	}
	type microEntry struct {
		name string
		fn   func() (MicroResult, error)
	}
	micros := []microEntry{
		{"mint-epoch", func() (MicroResult, error) {
			return microOperatorEpoch(func() topk.SnapshotOperator { return mint.New() })
		}},
		{"tag-epoch", func() (MicroResult, error) {
			return microOperatorEpoch(func() topk.SnapshotOperator { return tag.New() })
		}},
		{"view-codec", func() (MicroResult, error) { return microViewCodec() }},
		{"view-merge", func() (MicroResult, error) { return microViewMerge() }},
		{"fed-mint-epoch", func() (MicroResult, error) { return microFederatedEpoch() }},
		{"fed-historic-epoch", func() (MicroResult, error) { return microFederatedHistoric() }},
		{"shared-acquisition-m1", func() (MicroResult, error) { return microSharedAcquisition(1, true) }},
		{"shared-acquisition-m8", func() (MicroResult, error) { return microSharedAcquisition(8, true) }},
		{"shared-acquisition-m64", func() (MicroResult, error) { return microSharedAcquisition(64, true) }},
		{"private-acquisition-m8", func() (MicroResult, error) { return microSharedAcquisition(8, false) }},
		{"hub-fanout-64", func() (MicroResult, error) { return microHubFanOut(64) }},
		{"wire-epoch-batched", func() (MicroResult, error) { return microWireEpochRTT() }},
		{"store-recovery", func() (MicroResult, error) { return microStoreRecovery() }},
		{"reshard-downtime", func() (MicroResult, error) { return microReshardDowntime() }},
	}
	// The scale series always runs sequentially (workers = 1) so the
	// µs-per-node trajectory is comparable across hosts and PRs; the
	// speedup entry re-measures scale-4000 at the configured worker bound.
	for _, n := range ScaleSeriesSizes(cfg) {
		n := n
		micros = append(micros, microEntry{fmt.Sprintf("mint-epoch-scale-%d", n), func() (MicroResult, error) {
			return microScaleMintEpoch(n, 1, false)
		}})
	}
	if w := cfg.Parallel; w > 1 {
		micros = append(micros, microEntry{fmt.Sprintf("mint-epoch-scale-%d-parallel", SpeedupScaleSize), func() (MicroResult, error) {
			return microScaleMintEpoch(SpeedupScaleSize, w, false)
		}})
	}
	// The substrate comparison: the mint-epoch-scale-1000 epoch on an
	// engine.Live over the same network, at the configured worker bound.
	micros = append(micros, microEntry{"live-mint-epoch", func() (MicroResult, error) {
		return microScaleMintEpoch(LiveScaleSize, cfg.Parallel, true)
	}})
	// The sense half of the scale-1000 epoch alone, on the live substrate
	// kspotd deploys.
	micros = append(micros, microEntry{fmt.Sprintf("sense-epoch-scale-%d", LiveScaleSize), microSenseEpoch})
	for _, m := range micros {
		fmt.Fprintf(w, "bench %-28s ... ", m.name)
		res, err := m.fn()
		if err != nil {
			return fmt.Errorf("bench: micro %s: %w", m.name, err)
		}
		res.Name = m.name
		run.Micro = append(run.Micro, res)
		fmt.Fprintf(w, "%12.0f ns/op %6d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
	}
	for _, e := range All() {
		fmt.Fprintf(w, "exp   %-28s ... ", e.ID)
		t, err := timeExperiment(e, cfg)
		if err != nil {
			return fmt.Errorf("bench: experiment %s: %w", e.ID, err)
		}
		run.Experiments = append(run.Experiments, t)
		fmt.Fprintf(w, "%12d ns %9d allocs\n", t.NsPerOp, t.AllocsPerOp)
	}
	return mergeJSON(path, runName, run)
}

// mergeJSON folds a run into the trajectory file, creating it if needed.
func mergeJSON(path, runName string, run Run) error {
	f := File{
		GeneratedBy: "kspot-bench -json",
		Note: "Benchmark trajectory: one named run per measurement (pre-pr3-baseline, pr3 … pr10, then -json-run names). " +
			"Regenerate with `kspot-bench -json -json-run <name>`; existing runs are preserved.",
		Runs: map[string]Run{},
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("bench: existing %s is not a trajectory file: %w", path, err)
		}
		if f.Runs == nil {
			f.Runs = map[string]Run{}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Runs[runName] = run
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunOperatorEpochBench is the shared measurement body of the operator
// epoch benchmarks: attach on the standard deployment, run the creation
// epoch as warm-up, reset accounting, then measure b.N steady-state epochs.
// The module-root BenchmarkMintEpoch/BenchmarkTagEpoch and the -json
// trajectory both call this, so they always measure the identical loop.
// Returns per-epoch tx bytes and messages.
func RunOperatorEpochBench(b *testing.B, op topk.SnapshotOperator) (txBytesPerEpoch, msgsPerEpoch float64) {
	net, src, q, err := StandardDeployment()
	if err != nil {
		b.Fatal(err)
	}
	if err := op.Attach(net, q); err != nil {
		b.Fatal(err)
	}
	readings := topk.SenseEpoch(net, src, 0)
	if _, err := op.Epoch(0, readings); err != nil {
		b.Fatal(err)
	}
	net.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := model.Epoch(i + 1)
		rd := topk.SenseEpoch(net, src, e)
		if _, err := op.Epoch(e, rd); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		txBytesPerEpoch = float64(net.Counter.TotalTxBytes()) / float64(b.N)
		msgsPerEpoch = float64(net.Counter.TotalMessages()) / float64(b.N)
	}
	return txBytesPerEpoch, msgsPerEpoch
}

// RunViewCodecBench is the shared body of the view-codec benchmark: a
// 16-group view's encode+decode round-trip through caller-owned buffers
// (the steady-state wire path).
func RunViewCodecBench(b *testing.B) {
	v := model.NewView()
	for i := 0; i < 64; i++ {
		v.Add(model.Reading{Node: model.NodeID(i), Group: model.GroupID(i % 16), Value: model.Value(i)})
	}
	buf := make([]byte, 0, model.ViewWireSize(v))
	dec := model.NewView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = model.AppendView(buf[:0], v)
		if err := model.DecodeViewInto(dec, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// RunViewMergeBench is the shared body of the view-merge benchmark: the
// TAG merge path folding two 16-group views into a reused accumulator.
func RunViewMergeBench(b *testing.B) {
	a := model.NewView()
	c := model.NewView()
	for i := 0; i < 64; i++ {
		a.Add(model.Reading{Node: model.NodeID(i), Group: model.GroupID(i % 16), Value: model.Value(i)})
		c.Add(model.Reading{Node: model.NodeID(i + 64), Group: model.GroupID(i % 16), Value: model.Value(i)})
	}
	m := model.NewView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.MergeView(a)
		m.MergeView(c)
		if m.Len() != 16 {
			b.Fatal("merge lost groups")
		}
	}
}

// micro converts a testing.Benchmark result into a MicroResult; r.N == 0
// means the body failed (b.Fatal aborts the run).
func micro(r testing.BenchmarkResult, txBytes, msgs float64) (MicroResult, error) {
	if r.N == 0 {
		return MicroResult{}, fmt.Errorf("benchmark body failed")
	}
	return MicroResult{
		Iterations:      r.N,
		NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:     r.AllocsPerOp(),
		BytesPerOp:      r.AllocedBytesPerOp(),
		TxBytesPerEpoch: txBytes,
		MsgsPerEpoch:    msgs,
	}, nil
}

// microOperatorEpoch measures one steady-state operator epoch on the
// standard deployment — the same body as the module-root benchmarks.
func microOperatorEpoch(mk func() topk.SnapshotOperator) (MicroResult, error) {
	var txBytes, msgs float64
	r := testing.Benchmark(func(b *testing.B) {
		txBytes, msgs = RunOperatorEpochBench(b, mk())
	})
	return micro(r, txBytes, msgs)
}

// microScaleMintEpoch measures one steady-state MINT epoch on the flat
// scale-<n> deployment at the given sweep worker bound, annotating the
// result with µs-per-node-per-epoch and the worker count. The deployment
// is built once and reused across the benchmark's re-invocations — the
// O(n²) link construction at scale-100000 costs minutes, the epochs do not.
// With live set the epochs run on an engine.Live over that network.
func microScaleMintEpoch(n, workers int, live bool) (MicroResult, error) {
	net, src, q, err := scaleDeployment(n, workers)
	if err != nil {
		return MicroResult{}, err
	}
	nodes := len(net.Topology().SensorNodes())
	var txBytes, msgs float64
	r := testing.Benchmark(func(b *testing.B) {
		txBytes, msgs = RunScaleMintEpochBenchOn(b, net, live, src, q)
	})
	res, err := micro(r, txBytes, msgs)
	if err != nil {
		return res, err
	}
	us := res.NsPerOp / 1e3 / float64(nodes)
	res.UsPerNodePerEpoch = &us
	res.Workers = &workers
	return res, nil
}

// microSenseEpoch measures the sense phase of one scale-1000 epoch on an
// engine.Live, annotated with µs per node.
func microSenseEpoch() (MicroResult, error) {
	net, src, _, err := scaleDeployment(LiveScaleSize, 1)
	if err != nil {
		return MicroResult{}, err
	}
	r := testing.Benchmark(func(b *testing.B) { RunSenseEpochBenchOn(b, net, true, src) })
	res, err := micro(r, 0, 0)
	if err != nil {
		return res, err
	}
	us := res.NsPerOp / 1e3 / float64(len(net.Topology().SensorNodes()))
	res.UsPerNodePerEpoch = &us
	return res, nil
}

// microSharedAcquisition measures m same-signature queries stepping over
// the standard deployment — shared: one acquisition group; private: the
// pre-sharing one-group-per-query baseline.
func microSharedAcquisition(m int, shared bool) (MicroResult, error) {
	var qps float64
	r := testing.Benchmark(func(b *testing.B) {
		qps = RunSharedAcquisitionBench(b, m, shared)
	})
	res, err := micro(r, 0, 0)
	res.QueriesPerSec = qps
	return res, err
}

// microHubFanOut measures the streaming hub's fan-out of one epoch stream
// into subs concurrent subscribers.
func microHubFanOut(subs int) (MicroResult, error) {
	var rate float64
	r := testing.Benchmark(func(b *testing.B) {
		rate = RunHubFanOutBench(b, subs)
	})
	res, err := micro(r, 0, 0)
	res.SubscribersPerSec = rate
	return res, err
}

// microWireEpochRTT measures the wire epoch-RTT benchmark: wall latency of
// one federated epoch at an injected link delay, with the protocol's round
// trips and wire bytes per epoch alongside so the trajectory records them
// independent of host speed.
func microWireEpochRTT() (MicroResult, error) {
	var rounds, bytes float64
	r := testing.Benchmark(func(b *testing.B) {
		rounds, bytes = RunWireEpochRTTBench(b, WireRTTLinkDelay, WireRTTGroups)
	})
	res, err := micro(r, 0, 0)
	res.RoundsPerEpoch = rounds
	res.WireBytesPerEpoch = bytes
	return res, err
}

// microViewCodec measures the view codec round-trip.
func microViewCodec() (MicroResult, error) {
	return micro(testing.Benchmark(RunViewCodecBench), 0, 0)
}

// microViewMerge measures the view merge path.
func microViewMerge() (MicroResult, error) {
	return micro(testing.Benchmark(RunViewMergeBench), 0, 0)
}

// microFederatedEpoch measures one steady-state federated MINT epoch on
// the sharded scale deployment (scale-1000 in 4 shards), coordinator
// merge included.
func microFederatedEpoch() (MicroResult, error) {
	var txBytes, msgs, coordBytes float64
	r := testing.Benchmark(func(b *testing.B) {
		txBytes, msgs, coordBytes = RunFederatedMintEpochBench(b)
	})
	res, err := micro(r, txBytes, msgs)
	res.CoordBytesPerEpoch = coordBytes
	return res, err
}

// microFederatedHistoric measures one full federated historic execution
// (per-shard TJA + two-phase coordinator merge) on the sharded scale
// deployment.
func microFederatedHistoric() (MicroResult, error) {
	var txBytes, coordBytes float64
	r := testing.Benchmark(func(b *testing.B) {
		txBytes, coordBytes = RunFederatedHistoricBench(b)
	})
	res, err := micro(r, txBytes, 0)
	res.CoordBytesPerEpoch = coordBytes
	return res, err
}

// timeExperiment runs one experiment once at the configured scale and
// measures wall time and heap churn via MemStats deltas — coarse but cheap,
// and enough to catch an experiment's cost regressing across PRs.
func timeExperiment(e Experiment, cfg RunConfig) (ExperimentTiming, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := e.Run(io.Discard, cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return ExperimentTiming{}, err
	}
	return ExperimentTiming{
		ID:          e.ID,
		Title:       e.Title,
		NsPerOp:     elapsed.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
	}, nil
}
