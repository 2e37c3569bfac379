package bench

import (
	"testing"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/shard"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/topk/mint"
	"kspot/internal/trace"
)

// FederatedScaleSize and FederatedShardCount fix the federated measurement
// deployment: the scale-1000 field split into 4 shard networks — the
// sharded-vs-flat conformance configuration, so the benchmark measures
// exactly the deployment the correctness suite pins.
const (
	FederatedScaleSize  = 1000
	FederatedShardCount = 4
)

// fedDeployment builds the federated measurement deployment: the sharded
// scenario, one network per shard and the flat source every shard samples.
func fedDeployment(b *testing.B) (*config.Scenario, []*sim.Network, trace.Source) {
	scen, err := config.ScaleScenarioShards(FederatedScaleSize, FederatedShardCount)
	if err != nil {
		b.Fatal(err)
	}
	subs, err := scen.ShardScenarios()
	if err != nil {
		b.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		b.Fatal(err)
	}
	nets := make([]*sim.Network, len(subs))
	for i, sub := range subs {
		if nets[i], err = sub.Network(); err != nil {
			b.Fatal(err)
		}
	}
	return scen, nets, src
}

// reportShardTraffic reports the radio cost summed over the shard networks.
func reportShardTraffic(b *testing.B, nets []*sim.Network) {
	var tx, msgs int
	for _, net := range nets {
		tx += net.Counter.TotalTxBytes()
		msgs += net.Counter.TotalMessages()
	}
	perEpoch(b, tx, "tx_bytes/epoch")
	perEpoch(b, msgs, "msgs/epoch")
}

// fedMintEpoch measures one steady-state federated MINT epoch: MINT
// attached per shard on the sharded scale deployment, one coordinator-tier
// merge per epoch. The creation epoch is warm-up. Reports per-epoch radio
// tx bytes and messages (summed over the shards) plus per-epoch
// coordinator backhaul bytes.
func fedMintEpoch(b *testing.B) {
	scen, nets, src := fedDeployment(b)
	q := topk.SnapshotQuery{K: 3, Agg: model.AggAvg, Range: soundRange()}
	deps := make([]*engine.Deployment, len(nets))
	ops := make([]engine.EpochRunner, len(nets))
	for i, net := range nets {
		op := mint.New()
		if err := op.Attach(net, q); err != nil {
			b.Fatal(err)
		}
		deps[i], ops[i] = engine.NewDeployment(scen.ShardName(i), net, src), op
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
	reportShardTraffic(b, nets)
	perEpoch(b, stats.Snapshot().TxBytes-warmCoord, "coord_bytes/epoch")
}

// fedHistoricEpoch measures one full federated historic execution (TOP-4
// WITH HISTORY 16) per iteration on the sharded scale deployment, through
// the calls Cursor.Run makes: each shard body (shard.New) buffers its
// windows and runs TJA over them, then the coordinator runs the two-phase
// threshold merge, whose fetches re-read the instants they sum. The timed
// loop therefore includes the per-execution buffering. Its "epoch" is one execution: it
// reports per-execution radio traffic (summed over the shards) and
// coordinator backhaul bytes under the table's per-epoch units.
func fedHistoricEpoch(b *testing.B) {
	scen, err := config.ScaleScenarioShards(FederatedScaleSize, FederatedShardCount)
	if err != nil {
		b.Fatal(err)
	}
	q := topk.HistoricQuery{K: 4, Agg: model.AggAvg, Window: 16}
	bodies := make([]*shard.Shard, FederatedShardCount)
	nets := make([]*sim.Network, len(bodies))
	hosts := make([]fed.HistoricHost, len(bodies))
	for i := range bodies {
		if bodies[i], err = shard.New(shard.Config{Scenario: scen, Shard: i}); err != nil {
			b.Fatal(err)
		}
		defer bodies[i].Close()
		nets[i] = bodies[i].Network()
		hosts[i] = bodies[i]
	}
	var stats fed.Stats
	merger, err := fed.NewHistoric(q, fed.Config{}, &stats)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merger.Run("tja", hosts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportShardTraffic(b, nets)
	perEpoch(b, stats.Snapshot().TxBytes, "coord_bytes/epoch")
}
