package main

import (
	"slices"
	"sync"
	"time"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/serve"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/wire"
)

// perCall times fn over n calls and returns the mean per call. The
// isolated metrics are means by construction (a single call is below the
// clock's resolution for most of them); n is fixed so the work is the same
// on every commit.
func perCall(n int, fn func()) time.Duration {
	fn() // warm caches and lazy state
	t := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t) / time.Duration(n)
}

// isolated times single layers' calls on inputs taken from the workload:
// its scenario, one of its epochs' readings, its queries. These are the
// costs the traced run cannot see from a seam — work inside a sweep, or
// overlapped on the presample goroutine.
func isolated(in *inputs, m metrics) error {
	scen := in.Scenario
	network, err := scen.Network()
	if err != nil {
		return err
	}
	src, err := scen.Source()
	if err != nil {
		return err
	}
	const epoch = 100
	e := model.Epoch(epoch)
	m.set("engine.sense_us", us(perCall(200, func() {
		readings := engine.PresampleEpoch(network, src, e)
		engine.CommitSenseEpoch(network, e, readings)
		e++
	})), 200)
	nodes := network.Topology().SensorNodes()
	m.set("trace.sample_ns", float64(perCall(200, func() {
		for _, id := range nodes {
			src.Sample(id, epoch)
		}
	}))/float64(len(nodes)), 200*len(nodes))

	// An epoch's full group view: what the sink holds after an unpruned sweep.
	readings := engine.PresampleEpoch(network, src, epoch)
	view, other := model.NewView(), model.NewView()
	for _, r := range readings {
		view.Add(r)
		other.Add(r)
	}
	var buf []byte
	scratch := model.NewView()
	m.set("model.codec_ns_per_view", float64(perCall(2000, func() {
		buf = model.AppendView(buf[:0], view)
		if err := model.DecodeViewInto(scratch, buf); err != nil {
			panic(err) // a view this package just encoded
		}
	})), 2000)
	m.set("model.merge_ns_per_view", float64(perCall(2000, func() {
		scratch.Reset()
		scratch.MergeView(view)
		scratch.MergeView(other)
	})), 2000)

	if in.W.Shards > 0 {
		if err := isolatedRoundCodec(in, m, readings); err != nil {
			return err
		}
	}

	sqls := []string{in.Primary.SQL}
	for _, p := range in.Setup {
		sqls = append(sqls, p.SQL)
	}
	var planErr error
	m.set("query.plan_us", us(perCall(50, func() {
		for _, sql := range sqls {
			if _, err := query.PlanText(sql, query.DefaultSchema()); err != nil {
				planErr = err
			}
		}
	}))/float64(len(sqls)), 50*len(sqls))
	if planErr != nil {
		return planErr
	}

	adm := engine.NewAdmission(engine.AdmissionConfig{TenantQuota: 48})
	m.set("engine.admit_ns", float64(perCall(100000, func() {
		if adm.Admit("tenant-0") == nil {
			adm.Release("tenant-0")
		}
	})), 100000)

	m.set("serve.fanout64_us", us(fanout64(2000)), 2000)
	return nil
}

// isolatedRoundCodec times the codec of shard 0's epoch-round reply: its
// share of an epoch's readings plus one ranked answer list per sense key.
func isolatedRoundCodec(in *inputs, m metrics, readings map[model.NodeID]model.Reading) error {
	scen, err := shardedScenario(in, in.W.Shards)
	if err != nil {
		return err
	}
	subs, err := scen.ShardScenarios()
	if err != nil {
		return err
	}
	var roster []model.NodeID
	reply := wire.EpochRoundReply{Readings: map[model.NodeID]model.Reading{}}
	for _, n := range subs[0].Nodes {
		id := model.NodeID(n.ID)
		roster = append(roster, id)
		reply.Readings[id] = readings[id]
		reply.Epoch = readings[id].Epoch
	}
	slices.Sort(roster)
	for _, agg := range aggregates[:in.W.SenseKeys] {
		plan, err := query.PlanText(querySQL(4, agg), query.DefaultSchema())
		if err != nil {
			return err
		}
		reply.Groups = append(reply.Groups, wire.RoundGroup{Answers: topk.ExactSnapshot(reply.Readings, plan.Snapshot)})
	}
	var codecErr error
	m.set("wire.codec_us_per_round", us(perCall(500, func() {
		var payload []byte
		if payload, codecErr = wire.AppendEpochRoundReply(nil, roster, reply); codecErr == nil {
			_, codecErr = wire.DecodeEpochRoundReply(payload, roster)
		}
	})), 500)
	return codecErr
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fanout64 is one Publish to 64 subscribers, all drained by one goroutine:
// the wide fan-out the watcher count (tied to nproc) never reaches.
func fanout64(n int) time.Duration {
	hub := serve.NewHub(0)
	subs := make([]*serve.Subscriber, 64)
	for i := range subs {
		subs[i] = hub.Subscribe()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, s := range subs {
				if _, ok := s.Next(); !ok {
					return
				}
			}
		}
	}()
	res := serve.Result{Epoch: 1, Answers: []model.Answer{{Group: 1, Score: 50}, {Group: 2, Score: 40}, {Group: 3, Score: 30}}, Correct: true}
	d := perCall(n, func() { hub.Publish(res) })
	hub.Close()
	wg.Wait()
	return d
}

// recoverMs times OpenStore on a directory a run has written: the replay
// of every segment, as a restarted daemon pays it.
func recoverMs(dir string) (float64, error) {
	t := time.Now()
	store, err := storage.OpenStore(dir, storage.DefaultStoreWindow)
	if err != nil {
		return 0, err
	}
	d := time.Since(t)
	return ms(d), store.Close()
}
