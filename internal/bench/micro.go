package bench

import (
	"fmt"
	"testing"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tag"
	"kspot/internal/trace"
)

// This file is the micro-benchmark table. Every in-process micro the repo
// measures is one entry of Micros: a name and a testing.B body that reports
// its own domain metrics through b.ReportMetric, in the paper's currency —
// tx_bytes/epoch, msgs/epoch, coord_bytes/epoch — plus us/node/epoch on the
// scale series and the sense phase. Exactly two loops consume the
// table: BenchmarkMicro in the module-root bench_test.go (`go test -bench
// 'Micro/<name>$'`) and WriteJSON (the BENCH.json trajectory), so both
// always measure the identical body, and adding a micro is one entry here.
// The table holds only what an in-process micro alone can show; whatever
// needs real processes, sockets or disks (wire round trips, recovery, the
// serving tier) is measured end to end by `bash benchmark/run.sh`.

// Micro is one micro-benchmark of the table.
type Micro struct {
	Name string
	Run  func(*testing.B)
}

// Micros returns the table at the configured run scale and worker bound.
// The scale series always runs at one sweep worker so the µs-per-node
// trajectory stays comparable across hosts and PRs; Parallel > 1 adds the
// speedup leg (scale-4000 again, at that bound).
func Micros(cfg RunConfig) []Micro {
	ms := []Micro{
		{"mint-epoch", operatorEpoch(func() topk.SnapshotOperator { return mint.New() })},
		{"tag-epoch", operatorEpoch(func() topk.SnapshotOperator { return tag.New() })},
		{"view-codec", viewCodec},
		{"view-merge", viewMerge},
		{"fed-mint-epoch", fedMintEpoch},
		{"fed-historic-epoch", fedHistoricEpoch},
	}
	for _, n := range ScaleSeriesSizes(cfg) {
		ms = append(ms, Micro{fmt.Sprintf("mint-epoch-scale-%d", n), scaleMintEpoch(n, 1)})
	}
	if cfg.Parallel > 1 {
		ms = append(ms, Micro{fmt.Sprintf("mint-epoch-scale-%d-parallel", SpeedupScaleSize),
			scaleMintEpoch(SpeedupScaleSize, cfg.Parallel)})
	}
	// The sense half of the scale-1000 epoch alone: the size the end-to-end
	// benchmark's flat-sweep workload runs.
	return append(ms, Micro{"sense-epoch-scale-1000", senseEpoch(1000)})
}

// perEpoch reports a total accumulated over the b.N measured epochs as a
// per-epoch metric.
func perEpoch(b *testing.B, total int, unit string) {
	b.ReportMetric(float64(total)/float64(b.N), unit)
}

// runEpochs is the one measurement loop of the operator-epoch micros:
// attach op to the transport, run the creation epoch as warm-up, reset
// accounting, measure b.N steady-state epochs (sensing included) and
// report what an epoch costs the network, independent of host speed.
func runEpochs(b *testing.B, tp engine.Transport, op topk.SnapshotOperator, src trace.Source, q topk.SnapshotQuery) {
	if err := op.Attach(tp, q); err != nil {
		b.Fatal(err)
	}
	if _, err := op.Epoch(0, engine.SenseEpoch(tp, src, 0)); err != nil {
		b.Fatal(err)
	}
	tp.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := model.Epoch(i + 1)
		if _, err := op.Epoch(e, engine.SenseEpoch(tp, src, e)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := tp.Snap()
	perEpoch(b, total.TxBytes, "tx_bytes/epoch")
	perEpoch(b, total.Messages, "msgs/epoch")
}

// operatorEpoch measures one steady-state epoch of a fresh operator on the
// standard 64-node / 16-cluster deployment — the numbers the System Panel
// displays.
func operatorEpoch(mk func() topk.SnapshotOperator) func(*testing.B) {
	return func(b *testing.B) {
		net, src, q, err := StandardDeployment()
		if err != nil {
			b.Fatal(err)
		}
		runEpochs(b, net, mk(), src, q)
	}
}

// newGroupedView builds the 16-group, 64-reading view of the view micros,
// node ids starting at first.
func newGroupedView(first int) *model.View {
	v := model.NewView()
	for i := 0; i < 64; i++ {
		v.Add(model.Reading{Node: model.NodeID(first + i), Group: model.GroupID(i % 16), Value: model.Value(i)})
	}
	return v
}

// viewCodec measures a 16-group view's encode+decode round trip through
// caller-owned buffers (the steady-state wire path).
func viewCodec(b *testing.B) {
	v := newGroupedView(0)
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

// viewMerge measures the TAG merge path folding two 16-group views into a
// reused accumulator.
func viewMerge(b *testing.B) {
	a, c := newGroupedView(0), newGroupedView(64)
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
