package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"

	"kspot"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/serve"
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/topk/registry"
	"kspot/internal/wire"
)

// pipeline is an in-process deployment the traced pass drives through the
// daemon's epoch loop: the benchmark's own assembly of the layers (with or
// without span decorators), or the public API as the faithfulness check.
type pipeline interface {
	// post adds a live query, as POST /query (or the daemon's boot) would.
	post(p post) error
	// step advances cursor i one epoch and scores it against the oracle.
	step(i int, root int32) (serve.Result, error)
	// capture is the loop's per-epoch CaptureStats.
	capture(root int32) (totals, error)
	close()
}

// totals are the radio counters of a deployment, summed over its shards.
type totals struct {
	Messages, TxBytes, Drops int
	EnergyUJ                 float64
}

// cursor is the assembly's stand-in for kspot.Cursor: a continuous
// snapshot query's seat on the scheduler plus what Step needs to score it.
type cursor struct {
	plan *query.Plan
	sq   *engine.ScheduledQuery // local deployments
	rq   *engine.RemoteQuery    // remote deployments
}

// assembly is the pipeline kspotd runs, put together from the layers'
// public constructors the way kspot.Open / OpenFederated, Cursor.prepare
// and Cursor.result do — so that every seam can be wrapped. tr == nil
// installs no decorator: the undecorated run is the same code.
type assembly struct {
	tr     *tracer
	live   bool
	shards int
	stop   context.CancelFunc

	src       *countingSource
	nets      []*sim.Network
	lives     []*engine.Live
	tps       []engine.Transport // per shard: the substrate operators attach to
	stores    []*storage.Store
	sched     *engine.Scheduler
	groupCaps map[string]int

	servers    []*wire.Server
	clients    []*wire.Client
	rcoord     *engine.RemoteCoordinator
	remoteKeys map[string]*remoteKey
	nextQID    uint32

	fedStats  *fed.Stats
	admission *engine.Admission
	cursors   []*cursor
	sweeps    atomic.Int64
}

type remoteKey struct {
	rqid uint32
	cap  int
}

// shardedScenario returns the scenario split the way kspotd -shards does.
func shardedScenario(in *inputs, shards int) (*kspot.Scenario, error) {
	scen := *in.Scenario
	if shards > 0 {
		if err := scen.AutoShard(shards); err != nil {
			return nil, err
		}
	}
	return &scen, nil
}

// newLocal assembles a local deployment: one network per shard on the live
// or the deterministic substrate, the durable tier's tap when dataDir is
// set, one scheduler over the shard deployments (kspot.Open + ensureLive).
func newLocal(in *inputs, tr *tracer, live bool, shards int, dataDir string) (*assembly, error) {
	scen, err := shardedScenario(in, shards)
	if err != nil {
		return nil, err
	}
	shardScens, err := scen.ShardScenarios()
	if err != nil {
		return nil, err
	}
	src, err := scen.Source()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &assembly{tr: tr, live: live, shards: len(shardScens), stop: cancel,
		src: &countingSource{Source: src}, groupCaps: map[string]int{}, fedStats: &fed.Stats{}}
	if in.W.Quota > 0 {
		a.admission = engine.NewAdmission(engine.AdmissionConfig{TenantQuota: in.W.Quota})
	}
	deps := make([]*engine.Deployment, len(shardScens))
	for i, sub := range shardScens {
		network, err := sub.Network()
		if err != nil {
			a.close()
			return nil, err
		}
		network.SetParallel(runtime.NumCPU()) // kspotd's -parallel default; the live substrate ignores it
		a.nets = append(a.nets, network)
		var tp engine.Transport = network
		if live {
			l := engine.NewLive(network, engine.LiveOptions{Window: 64})
			l.Start(ctx)
			a.lives = append(a.lives, l)
			tp = l
		}
		if dataDir != "" {
			store, err := storage.OpenStore(filepath.Join(dataDir, scen.ShardName(i)), storage.DefaultStoreWindow)
			if err != nil {
				a.close()
				return nil, err
			}
			a.stores = append(a.stores, store)
			var rec engine.ReadingsRecorder = store
			if tr != nil {
				rec = spanRecorder{store, tr}
			}
			tp = engine.Recorded{Transport: tp, Rec: rec}
		}
		a.tps = append(a.tps, tp)
		deps[i] = engine.NewDeployment(scen.ShardName(i), tp, a.src)
	}
	a.sched = engine.NewScheduler(deps...)
	return a, nil
}

// shardServers starts one in-process wire.Server per shard on loopback,
// the stand-in for the kspotd -serve-shard processes. With a tracer the
// listeners time the server side of every exchange.
func shardServers(scen *kspot.Scenario, tr *tracer) (servers []*wire.Server, addrs []string, err error) {
	for i := range scen.Shards {
		srv, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: i, Parallel: 1})
		if err != nil {
			closeServers(servers)
			return nil, nil, err
		}
		servers = append(servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeServers(servers)
			return nil, nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		if tr != nil {
			ln = spanListener{ln, tr, i}
		}
		go srv.Serve(ln) // returns when closeServers closes the server
	}
	return servers, addrs, nil
}

func closeServers(servers []*wire.Server) {
	for _, s := range servers {
		s.Close()
	}
}

// newRemote assembles a remote deployment: wire servers on loopback, one
// wire client per shard, the remote coordinator (kspot.OpenFederated).
func newRemote(in *inputs, tr *tracer, shards int) (*assembly, error) {
	scen, err := shardedScenario(in, shards)
	if err != nil {
		return nil, err
	}
	shardScens, err := scen.ShardScenarios()
	if err != nil {
		return nil, err
	}
	a := &assembly{tr: tr, shards: shards, stop: func() {}, remoteKeys: map[string]*remoteKey{}, fedStats: &fed.Stats{}}
	var addrs []string
	if a.servers, addrs, err = shardServers(scen, tr); err != nil {
		return nil, err
	}
	deps := make([]*engine.RemoteDeployment, shards)
	for i, addr := range addrs {
		roster := make([]model.NodeID, 0, len(shardScens[i].Nodes))
		for _, n := range shardScens[i].Nodes {
			roster = append(roster, model.NodeID(n.ID))
		}
		slices.Sort(roster)
		cl, err := wire.Dial(wire.ClientConfig{Addr: addr, Scenario: scen.Name, Shard: i, Shards: shards,
			Nodes: len(shardScens[i].Nodes), Roster: roster})
		if err != nil {
			a.close()
			return nil, err
		}
		a.clients = append(a.clients, cl)
		var shard engine.RemoteShard = cl
		if tr != nil {
			shard = &spanRoundShard{cl, tr, i}
		}
		deps[i] = engine.NewRemoteDeployment(scen.ShardName(i), shard)
	}
	a.rcoord = engine.NewRemoteCoordinator(deps...)
	return a, nil
}

func (a *assembly) remote() bool { return a.rcoord != nil }

// post is Cursor.prepare / prepareRemote for the one plan kind the
// generator emits (snapshot TOP-K on MINT): plan, admit, then join the
// sensing signature's group — attaching operators when it is new, or when
// this member needs a deeper ranking than the group acquires.
func (a *assembly) post(p post) error {
	plan, err := query.PlanText(p.SQL, query.DefaultSchema())
	if err != nil {
		return err
	}
	if plan.Kind != query.PlanSnapshotTopK {
		return fmt.Errorf("benchmark: %q plans as %s, the generator only posts snapshot TOP-K", p.SQL, plan.Kind)
	}
	if a.admission != nil {
		if err := a.admission.Admit(p.Tenant); err != nil {
			return err
		}
	}
	c := &cursor{plan: plan}
	var merge engine.MergeFunc
	if a.shards > 1 {
		m, err := fed.New(plan.Snapshot, fed.Config{}, a.fedStats)
		if err != nil {
			return err
		}
		merge = spanMerge(a.tr, m.Merge)
	}
	const algo = "mint"
	key := algo + "|" + plan.SenseKey
	k := plan.Snapshot.K

	if a.remote() {
		st := a.remoteKeys[key]
		if st == nil || k > st.cap {
			a.nextQID++
			for _, cl := range a.clients {
				if err := cl.Attach(a.nextQID, algo, plan.Query); err != nil {
					return err
				}
			}
			if st == nil {
				st = &remoteKey{}
				a.remoteKeys[key] = st
			} else if err := a.rcoord.WidenGroup(key, a.nextQID); err != nil {
				return err
			}
			st.rqid, st.cap = a.nextQID, k
		}
		c.rq = a.rcoord.Schedule(key, st.rqid, merge, k)
		a.cursors = append(a.cursors, c)
		return nil
	}

	spec := engine.QuerySpec{Key: key, Merge: merge, CutK: k}
	fresh := a.sched.GroupSize(key) == 0
	if fresh || k > a.groupCaps[key] {
		ops := make([]engine.EpochRunner, a.shards)
		for i, tp := range a.tps {
			op, err := registry.Snapshot(algo)
			if err != nil {
				return err
			}
			var runner *spanRunner
			if a.tr != nil {
				runner = &spanRunner{EpochRunner: op, tr: a.tr, shard: i}
				kind := spSimTransport
				if a.live {
					kind = spLiveTransport
				}
				tp = &spanTransport{Transport: tp, tr: a.tr, kind: kind, shard: i, parent: &runner.cur, sweeps: &a.sweeps}
			}
			if err := op.Attach(tp, plan.Snapshot); err != nil {
				return err
			}
			ops[i] = op
			if runner != nil {
				ops[i] = runner
			}
		}
		if fresh {
			spec.Ops = ops
		} else if err := a.sched.WidenGroup(key, ops); err != nil {
			return err
		}
		a.groupCaps[key] = k
	}
	c.sq = a.sched.Schedule(spec)
	a.cursors = append(a.cursors, c)
	return nil
}

// step is Cursor.StepContext + Cursor.result.
func (a *assembly) step(i int, root int32) (serve.Result, error) {
	c := a.cursors[i]
	id := a.tr.begin(spSched, root)
	if a.tr != nil {
		a.tr.sched.Store(id)
	}
	var out engine.Outcome
	var err error
	switch {
	case a.remote():
		if out, err = a.rcoord.Step(c.rq); err == nil {
			err = out.Err
		}
	case a.live:
		out, err = a.sched.StepContext(context.Background(), c.sq)
	default:
		out, err = a.sched.Step(c.sq)
	}
	a.tr.end(id)
	if err != nil {
		return serve.Result{}, err
	}
	id = a.tr.begin(spOracle, root)
	exact := topk.ExactSnapshot(out.Readings, c.plan.Snapshot)
	correct := model.EqualAnswers(out.Answers, exact)
	a.tr.end(id)
	return serve.Result{Epoch: out.Epoch, Answers: out.Answers, Correct: correct}, nil
}

// capture is System.CaptureStats: the local networks' counters, or one
// stats call per shard over the wire.
func (a *assembly) capture(root int32) (totals, error) {
	id := a.tr.begin(spCapture, root)
	defer a.tr.end(id)
	var rows []stats.RunStats
	if a.remote() {
		for i, cl := range a.clients {
			if a.tr != nil {
				a.tr.client[i].Store(id)
			}
			row, err := cl.Stats()
			if a.tr != nil {
				a.tr.client[i].Store(-1)
			}
			if err != nil {
				return totals{}, err
			}
			rows = append(rows, row)
		}
	} else {
		for i, network := range a.nets {
			rows = append(rows, stats.Collect(fmt.Sprint(i), network, 0))
		}
	}
	m := stats.Merge("live", rows...)
	return totals{m.Messages, m.TxBytes, m.Drops, m.EnergyUJ}, nil
}

func (a *assembly) close() {
	for _, cl := range a.clients {
		cl.Close()
	}
	closeServers(a.servers)
	if a.sched != nil {
		a.sched.Close()
	}
	for _, l := range a.lives {
		l.Stop()
	}
	a.stop()
	for _, s := range a.stores {
		s.Close()
	}
}

// public drives the same deployment through the public API alone — what
// kspotd itself calls. Its answers and radio totals must equal the
// assembly's, or the assembly is not the pipeline the daemon runs.
type public struct {
	sys     *kspot.System
	remote  bool
	servers []*wire.Server
	cursors []*kspot.Cursor
}

func newPublic(in *inputs, shards int, dataDir string) (*public, error) {
	var opts []kspot.OpenOption
	if in.W.Quota > 0 {
		opts = append(opts, kspot.WithAdmission(kspot.AdmissionConfig{TenantQuota: in.W.Quota}))
	}
	if shards == 0 {
		if dataDir != "" {
			opts = append(opts, kspot.WithDataDir(dataDir))
		}
		sys, err := kspot.Open(in.Scenario, append(opts, kspot.WithParallel(runtime.NumCPU()))...)
		return &public{sys: sys}, err
	}
	scen, err := shardedScenario(in, shards)
	if err != nil {
		return nil, err
	}
	servers, addrs, err := shardServers(scen, nil)
	if err != nil {
		return nil, err
	}
	sys, err := kspot.OpenFederated(scen, addrs, opts...)
	if err != nil {
		closeServers(servers)
		return nil, err
	}
	return &public{sys: sys, remote: true, servers: servers}, nil
}

func (p *public) post(q post) error {
	var opts []kspot.PostOption
	if !p.remote {
		opts = append(opts, kspot.WithLive())
		if len(p.cursors) == 0 {
			opts = append(opts, kspot.WithLiveWindow(64))
		}
	}
	if q.Tenant != "" {
		opts = append(opts, kspot.WithTenant(q.Tenant))
	}
	cur, err := p.sys.Post(q.SQL, opts...)
	if err != nil {
		return err
	}
	p.cursors = append(p.cursors, cur)
	return nil
}

func (p *public) step(i int, _ int32) (serve.Result, error) {
	res, err := p.cursors[i].Step()
	if err != nil {
		return serve.Result{}, err
	}
	return serve.Result{Epoch: res.Epoch, Answers: res.Answers, Correct: res.Correct}, nil
}

func (p *public) capture(int32) (totals, error) {
	t := p.sys.CaptureStats("live", 0)
	return totals{t.Messages, t.TxBytes, t.Drops, t.EnergyUJ}, nil
}

func (p *public) close() {
	p.sys.Close()
	closeServers(p.servers)
}
