package bench

import (
	"testing"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tja"
)

// FederatedScaleSize and FederatedShardCount fix the federated measurement
// deployment: the scale-1000 field split into 4 shard networks — the
// sharded-vs-flat conformance configuration, so the benchmark measures
// exactly the deployment the correctness suite pins.
const (
	FederatedScaleSize  = 1000
	FederatedShardCount = 4
)

// RunFederatedMintEpochBench is the shared measurement body of the
// federated operator benchmark: MINT attached per shard on the sharded
// scale deployment, one coordinator-tier merge per epoch. The creation
// epoch is warm-up; b.N steady-state federated epochs are measured.
// Returns per-epoch radio tx bytes and messages (summed over the shards)
// plus per-epoch coordinator backhaul bytes.
func RunFederatedMintEpochBench(b *testing.B) (txBytesPerEpoch, msgsPerEpoch, coordBytesPerEpoch float64) {
	scen, err := config.ScaleScenarioShards(FederatedScaleSize, FederatedShardCount)
	if err != nil {
		b.Fatal(err)
	}
	subs, err := scen.ShardScenarios()
	if err != nil {
		b.Fatal(err)
	}
	src, err := scen.Source() // the flat source, shared by every shard
	if err != nil {
		b.Fatal(err)
	}
	q := topk.SnapshotQuery{K: 3, Agg: model.AggAvg, Range: soundRange()}
	nets := make([]*sim.Network, 0, len(subs))
	deps := make([]*engine.Deployment, 0, len(subs))
	ops := make([]engine.EpochRunner, 0, len(subs))
	for i, sub := range subs {
		net, err := sub.Network()
		if err != nil {
			b.Fatal(err)
		}
		op := mint.New()
		if err := op.Attach(net, q); err != nil {
			b.Fatal(err)
		}
		nets = append(nets, net)
		deps = append(deps, engine.NewDeployment(scen.ShardName(i), net, src))
		ops = append(ops, op)
	}
	var stats fed.Stats
	merger, err := fed.New(q, fed.Config{}, &stats)
	if err != nil {
		b.Fatal(err)
	}
	sched := engine.NewScheduler(deps...)
	sq := sched.Add(ops, merger.Merge, nil)

	if _, err := sched.Step(sq); err != nil {
		b.Fatal(err)
	}
	for _, net := range nets {
		net.Reset()
	}
	warmCoord := stats.Snapshot().TxBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Step(sq); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		var tx, msgs int
		for _, net := range nets {
			tx += net.Counter.TotalTxBytes()
			msgs += net.Counter.TotalMessages()
		}
		txBytesPerEpoch = float64(tx) / float64(b.N)
		msgsPerEpoch = float64(msgs) / float64(b.N)
		coordBytesPerEpoch = float64(stats.Snapshot().TxBytes-warmCoord) / float64(b.N)
	}
	return txBytesPerEpoch, msgsPerEpoch, coordBytesPerEpoch
}

// RunFederatedHistoricBench is the shared measurement body of the
// federated historic benchmark: one full TOP-K ... WITH HISTORY execution
// per iteration on the sharded scale deployment — per-shard TJA over the
// buffered windows, two-phase threshold merge at the coordinator.
// Returns per-execution radio tx bytes (summed over the shards) and
// coordinator backhaul bytes.
func RunFederatedHistoricBench(b *testing.B) (txBytesPerRun, coordBytesPerRun float64) {
	scen, err := config.ScaleScenarioShards(FederatedScaleSize, FederatedShardCount)
	if err != nil {
		b.Fatal(err)
	}
	subs, err := scen.ShardScenarios()
	if err != nil {
		b.Fatal(err)
	}
	src, err := scen.Source() // the flat source, shared by every shard
	if err != nil {
		b.Fatal(err)
	}
	q := topk.HistoricQuery{K: 4, Agg: model.AggAvg, Window: 16}
	nets := make([]*sim.Network, 0, len(subs))
	shards := make([]fed.HistoricShard, 0, len(subs))
	for _, sub := range subs {
		net, err := sub.Network()
		if err != nil {
			b.Fatal(err)
		}
		series, err := storage.BufferSeries(net.Topology().SensorNodes(), q.Window, src.Sample)
		if err != nil {
			b.Fatal(err)
		}
		nets = append(nets, net)
		shards = append(shards, &fed.OperatorShard{
			Op: tja.New(), Tp: net, Q: q, Data: topk.HistoricData(series),
		})
	}
	var stats fed.Stats
	merger, err := fed.NewHistoric(q, fed.Config{}, &stats)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merger.Run(shards, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		tx := 0
		for _, net := range nets {
			tx += net.Counter.TotalTxBytes()
		}
		txBytesPerRun = float64(tx) / float64(b.N)
		coordBytesPerRun = float64(stats.Snapshot().TxBytes) / float64(b.N)
	}
	return txBytesPerRun, coordBytesPerRun
}
