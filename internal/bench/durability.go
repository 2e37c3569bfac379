package bench

// The durable-tier benchmarks (PR 10): what crash recovery and live
// re-sharding cost.
//
//   - store-recovery: wall time to reopen a full disk-backed store — one
//     shard log of RecoveryEpochs epoch batches over RecoveryNodes nodes,
//     replayed through the torn-tail-truncating decoder — the startup tax
//     a restarted `kspotd -serve-shard -data-dir` pays before it can
//     answer its first retried epoch round. recovery_ms records it host-speed-adjacent but
//     directly comparable across PRs on the CI trajectory.
//
//   - reshard-downtime: a 2-shard scale-320 federation behind real
//     loopback sockets, one posted query stepping flat-out in a background
//     goroutine, migrated 2→4→2→… through the full live-re-sharding
//     cutover (re-attach, snapshot, split-merge, restore, Install).
//     resharding_downtime_epochs records how many lock-step epochs elapsed
//     per migration — every one of them answered on the OLD deployment,
//     so the number bounds the target shards' durable-window gap, not any
//     query outage.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/wire"
)

// RecoveryNodes and RecoveryEpochs size the store-recovery benchmark: a
// scale-320 shard's log, every window full.
const (
	RecoveryNodes  = 320
	RecoveryEpochs = storage.DefaultStoreWindow
)

// ReshardScaleSize and ReshardMigrations size the reshard-downtime
// benchmark: the scale-320 field (16 clusters — splits 2 and 4 ways)
// migrated back and forth this many times.
const (
	ReshardScaleSize  = 320
	ReshardMigrations = 4
)

// RunStoreRecoveryBench is the shared measurement body of the recovery
// benchmark: populate a disk-backed store once (off the timer), then
// measure b.N full recoveries — OpenStore replaying the log's clean prefix
// and resuming the epoch cursor. Closing the recovered store is off
// the timer; only the open-and-replay path is measured.
func RunStoreRecoveryBench(b *testing.B) {
	dir := b.TempDir()
	st, err := storage.OpenStore(dir, storage.DefaultStoreWindow)
	if err != nil {
		b.Fatal(err)
	}
	readings := make(map[model.NodeID]model.Reading, RecoveryNodes)
	for e := 0; e < RecoveryEpochs; e++ {
		for n := 1; n <= RecoveryNodes; n++ {
			readings[model.NodeID(n)] = model.Reading{
				Node:  model.NodeID(n),
				Epoch: model.Epoch(e),
				Value: model.Value(float64(n%97) + float64(e)*0.25),
			}
		}
		st.RecordReadings(model.Epoch(e), readings)
	}
	if msg := st.Stats().Err; msg != "" {
		b.Fatal(msg)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := storage.OpenStore(dir, storage.DefaultStoreWindow)
		if err != nil {
			b.Fatal(err)
		}
		if e, ok := rec.Cursor(); !ok || e != RecoveryEpochs-1 {
			b.Fatalf("recovered cursor %v/%v, want %d", e, ok, RecoveryEpochs-1)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// reshardFleet is one side of a migration: a wire server per shard on
// loopback, its dialed client, and the remote deployment handles the
// coordinator installs.
type reshardFleet struct {
	scens   []*config.Scenario
	servers []*wire.Server
	clients []*wire.Client
	deps    []*engine.RemoteDeployment
}

func startReshardFleet(scen *config.Scenario) (*reshardFleet, error) {
	shardScens, err := scen.ShardScenarios()
	if err != nil {
		return nil, err
	}
	f := &reshardFleet{scens: shardScens}
	for i, sub := range shardScens {
		srv, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: i})
		if err != nil {
			f.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			f.close()
			return nil, err
		}
		go srv.Serve(ln)
		f.servers = append(f.servers, srv)
		cl, err := wire.Dial(wire.ClientConfig{
			Addr:     ln.Addr().String(),
			Scenario: scen.Name,
			Shard:    i,
			Shards:   len(shardScens),
			Nodes:    len(sub.Nodes),
			Roster:   sub.Roster(),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
		f.deps = append(f.deps, engine.NewRemoteDeployment(scen.ShardName(i), cl))
	}
	return f, nil
}

func (f *reshardFleet) close() {
	for _, cl := range f.clients {
		cl.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
}

// MeasureReshardDowntime runs the live-re-sharding cutover end to end the
// given number of times — alternating 2→4 and 4→2 on the scale-320 field,
// with one scheduled query stepping continuously in the background — and
// returns the mean wall nanoseconds per migration and the mean lock-step
// epochs that elapsed while each migration was in flight.
func MeasureReshardDowntime(migrations int) (nsPerMigration, downtimeEpochs float64, err error) {
	scen2, err := config.ScaleScenarioShards(ReshardScaleSize, 2)
	if err != nil {
		return 0, 0, err
	}
	scen4, err := config.ScaleScenarioShards(ReshardScaleSize, 4)
	if err != nil {
		return 0, 0, err
	}
	cur, err := startReshardFleet(scen2)
	if err != nil {
		return 0, 0, err
	}
	defer func() { cur.close() }()

	const (
		rqid = 1
		algo = "mint"
		sql  = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	)
	for _, cl := range cur.clients {
		if err := cl.Attach(rqid, algo, sql); err != nil {
			return 0, 0, err
		}
	}
	q := topk.SnapshotQuery{K: 3, Agg: model.AggAvg, Range: soundRange()}
	var fstats fed.Stats
	merger, err := fed.New(q, fed.Config{}, &fstats)
	if err != nil {
		return 0, 0, err
	}
	coord := engine.NewShardScheduler(cur.deps...)
	rq := coord.Schedule(engine.QuerySpec{Key: "g", Query: rqid, Merge: merger.Merge, CutK: q.K})

	// The background load: one query stepping flat-out — every epoch the
	// clock runs during a migration ran on the old deployment.
	stop := make(chan struct{})
	var stepErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := coord.Step(rq); err != nil {
				stepErr = err
				return
			}
		}
	}()
	stopStepper := func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}
	defer stopStepper()

	var totalNs, totalDown int64
	for m := 0; m < migrations; m++ {
		target := scen4
		if m%2 == 1 {
			target = scen2
		}
		next, err := startReshardFleet(target)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		before := coord.Epoch()
		for _, cl := range next.clients {
			if err := cl.Attach(rqid, algo, sql); err != nil {
				next.close()
				return 0, 0, err
			}
		}
		states := make([]storage.ShardState, len(cur.clients))
		for i, cl := range cur.clients {
			img, err := cl.Snapshot()
			if err != nil {
				next.close()
				return 0, 0, fmt.Errorf("bench: reshard snapshot shard %d: %w", i, err)
			}
			if states[i], err = storage.DecodeShardState(img); err != nil {
				next.close()
				return 0, 0, err
			}
		}
		for ti, ts := range next.scens {
			keep := make(map[model.NodeID]bool, len(ts.Nodes))
			for _, n := range ts.Nodes {
				keep[model.NodeID(n.ID)] = true
			}
			merged := storage.MergeShardStates(states, keep)
			if err := next.clients[ti].Restore(storage.AppendShardState(nil, merged)); err != nil {
				next.close()
				return 0, 0, fmt.Errorf("bench: reshard restore shard %d: %w", ti, err)
			}
		}
		if err := coord.Install(next.deps); err != nil {
			next.close()
			return 0, 0, err
		}
		totalDown += int64(coord.Epoch() - before)
		totalNs += time.Since(start).Nanoseconds()
		old := cur
		cur = next
		// In-flight rounds finish on the old connections before they close.
		coord.Serialized(func() error {
			for _, cl := range old.clients {
				cl.Close()
			}
			return nil
		})
		for _, srv := range old.servers {
			srv.Close()
		}
	}
	stopStepper()
	if stepErr != nil {
		return 0, 0, fmt.Errorf("bench: background stepper during migration: %w", stepErr)
	}
	n := float64(migrations)
	return float64(totalNs) / n, float64(totalDown) / n, nil
}

// microStoreRecovery measures the full-store recovery path; recovery_ms is
// NsPerOp in wall milliseconds.
func microStoreRecovery() (MicroResult, error) {
	r := testing.Benchmark(RunStoreRecoveryBench)
	res, err := micro(r, 0, 0)
	if err != nil {
		return res, err
	}
	res.RecoveryMs = res.NsPerOp / 1e6
	return res, nil
}

// microReshardDowntime measures the live-re-sharding cutover. The
// measurement is one-shot (each migration needs a fresh target fleet), so
// the MicroResult is built directly rather than via testing.Benchmark.
func microReshardDowntime() (MicroResult, error) {
	ns, down, err := MeasureReshardDowntime(ReshardMigrations)
	if err != nil {
		return MicroResult{}, err
	}
	return MicroResult{
		Iterations:               ReshardMigrations,
		NsPerOp:                  ns,
		ReshardingDowntimeEpochs: &down,
	}, nil
}
