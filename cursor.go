package kspot

import (
	"context"
	"fmt"
	"sync"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/trace"
	"kspot/internal/wire"
)

// Cursor is a prepared query. Snapshot (continuous) queries advance one
// epoch per Step (or StepContext) call; historic queries execute once via
// Run. On a federated deployment a cursor owns one operator instance per
// shard plus the coordinator-tier merger; its answers aggregate across
// every shard.
type Cursor struct {
	sys  *System
	plan *query.Plan
	algo Algorithm
	live bool

	merger *fed.Merger // nil on flat deployments

	// Continuous cursors are seats on a shared lock-step scheduler — the
	// System's deterministic scheduler, its live scheduler, or the remote
	// coordinator's scheduled tier. Cursors whose queries share a sensing
	// signature (groupKey) ride ONE in-network acquisition per epoch; the
	// cursor's own merge and TOP-K cut run above the shared view.
	tps   []engine.Transport
	sched *engine.Scheduler
	sq    *engine.ScheduledQuery
	rq    *engine.RemoteQuery

	// groupKey is the shared-acquisition key this cursor scheduled under
	// (resolved algorithm + the plan's SenseKey); tenant/admitted record
	// the admission slot Close releases.
	groupKey  string
	tenant    string
	admitted  bool
	closeOnce sync.Once
}

// StepResult is one epoch of a continuous query.
type StepResult struct {
	Epoch   Epoch
	Answers []Answer
	// Exact is the oracle answer for the same epoch over the union of
	// every shard's readings (the simulator knows ground truth; a real
	// deployment would not).
	Exact   []Answer
	Correct bool
}

// Plan describes how the router dispatched the query.
func (c *Cursor) Plan() string { return c.plan.Kind.String() }

// Query returns the canonical query text.
func (c *Cursor) Query() string { return c.plan.Query }

// Live reports whether the cursor runs on the concurrent substrate.
func (c *Cursor) Live() bool { return c.live }

// Continuous reports whether the cursor is advanced with Step (snapshot
// and basic queries) rather than executed once with Run.
func (c *Cursor) Continuous() bool {
	return c.plan.Kind != query.PlanHistoricTopK
}

// transports returns the shard substrates this cursor's traffic runs on
// (behind the fault injectors when an environment is armed).
func (c *Cursor) transports() ([]engine.Transport, error) {
	if !c.live {
		if c.tps == nil {
			c.tps = c.sys.detTransports()
		}
		return c.tps, nil
	}
	if c.tps == nil {
		tps, sched := c.sys.liveState()
		if tps == nil {
			return nil, fmt.Errorf("kspot: system is closed")
		}
		c.tps, c.sched = tps, sched
	}
	return c.tps, nil
}

func (c *Cursor) prepare() error {
	switch c.plan.Kind {
	case query.PlanHistoricTopK:
		// Historic TOP-K federates: each shard runs the historic operator
		// over its own windows and the coordinator closes the ranking with
		// a TPUT-style threshold round (fed.HistoricMerger). Run builds the
		// per-shard executions; nothing to prepare beyond the operator.
		if _, err := historicOperator(c.algo); err != nil {
			return err
		}
		return nil
	case query.PlanBasic:
		// Basic queries always run plain acquisition.
		if c.algo != AlgoAuto && c.algo != AlgoTAG {
			return fmt.Errorf("kspot: basic queries run on TAG, not %q", c.algo)
		}
	}
	algo := c.resolvedAlgo()
	if c.sys.Remote() {
		return c.prepareRemote(algo)
	}
	tps, err := c.transports()
	if err != nil {
		return err
	}
	if !c.live {
		// Deterministic snapshot cursors share the System's lock-step
		// scheduler, exactly like live cursors share theirs: the epoch is
		// sensed once however many queries are posted, and same-signature
		// queries share one acquisition.
		c.sched = c.sys.detScheduler()
	}
	if len(tps) > 1 {
		m, err := fed.New(c.plan.Snapshot, fed.Config{}, c.sys.fedStats)
		if err != nil {
			return err
		}
		c.merger = m
	}

	// Schedule under the sensing signature. The first query of a signature
	// attaches the operators; later ones join its in-network acquisition,
	// widening it first when they need a deeper ranking than it was
	// attached at. Group bookkeeping (existence, acquired depth) is
	// serialized across posts and closes by groupMu.
	key := string(algo) + "|" + c.plan.SenseKey
	spec := engine.QuerySpec{Key: key, Merge: c.mergeFunc(), CutK: c.cutK()}
	c.sys.groupMu.Lock()
	defer c.sys.groupMu.Unlock()
	capKey := c.capKeyFor(key)
	if c.sched.GroupSize(key) == 0 || c.plan.Snapshot.K > c.sys.groupCaps[capKey] {
		ops := make([]engine.EpochRunner, len(tps))
		for i, tp := range tps {
			op, err := snapshotOperator(algo)
			if err != nil {
				return err
			}
			if err := op.Attach(tp, c.plan.Snapshot); err != nil {
				return err
			}
			ops[i] = op
		}
		if c.sched.GroupSize(key) == 0 {
			spec.Ops = ops
			if c.plan.Kind == query.PlanHistoricGroupTopK {
				spec.Src = c.source()
			}
		} else if err := c.sched.WidenGroup(key, ops); err != nil {
			return err
		}
		c.sys.groupCaps[capKey] = c.plan.Snapshot.K
	}
	c.sq = c.sched.Schedule(spec)
	c.groupKey = key
	return nil
}

// prepareRemote schedules the cursor on the remote coordinator's lock-step
// tier. Remote shards plan the SQL and instantiate the operator in their
// own process (internal/topk/registry maps the algorithm name to the
// identical implementation); the coordinator attaches ONE wire query per
// sensing signature and every same-signature cursor's epochs acquire it.
func (c *Cursor) prepareRemote(algo Algorithm) error {
	// Validate the name here so a bad algorithm fails the Post, not the
	// first Step.
	if _, err := snapshotOperator(algo); err != nil {
		return err
	}
	key := string(algo) + "|" + c.plan.SenseKey
	c.sys.groupMu.Lock()
	defer c.sys.groupMu.Unlock()
	if len(c.sys.remotes) > 1 {
		m, err := fed.New(c.plan.Snapshot, fed.Config{}, c.sys.fedStats)
		if err != nil {
			return err
		}
		c.merger = m
	}
	st := c.sys.remoteKeys[key]
	if st == nil || c.plan.Snapshot.K > st.cap {
		// First query of the signature, or one needing a deeper ranking
		// than the group was attached at: attach this cursor's own plan on
		// every shard (its K is the new widest) and point the group at it.
		rqid := c.sys.nextQueryID()
		for _, cl := range c.sys.remotes {
			if err := cl.Attach(rqid, string(c.wireAlgo()), c.plan.Query); err != nil {
				return err
			}
		}
		if st == nil {
			st = &remoteKeyState{rqid: rqid, cap: c.plan.Snapshot.K, algo: string(c.wireAlgo()), sql: c.plan.Query}
			c.sys.remoteKeys[key] = st
		} else {
			if err := c.sys.rcoord.WidenGroup(key, rqid); err != nil {
				return err
			}
			st.rqid, st.cap, st.algo, st.sql = rqid, c.plan.Snapshot.K, string(c.wireAlgo()), c.plan.Query
		}
	}
	c.rq = c.sys.rcoord.Schedule(key, st.rqid, c.mergeFunc(), c.cutK())
	c.groupKey = key
	return nil
}

// resolvedAlgo folds the algorithm the query actually runs on: basic
// queries always run TAG, and AlgoAuto resolves to MINT for snapshot plans
// (registry treats "" and "mint" as the same operator) — so equivalent
// posts derive equal acquisition keys.
func (c *Cursor) resolvedAlgo() Algorithm {
	if c.plan.Kind == query.PlanBasic {
		return AlgoTAG
	}
	if c.algo == AlgoAuto {
		return AlgoMINT
	}
	return c.algo
}

// wireAlgo is the algorithm name sent on the wire Attach: the resolved
// name, which every shard's registry maps to the identical operator.
func (c *Cursor) wireAlgo() Algorithm { return c.resolvedAlgo() }

// cutK is this cursor's own TOP-K depth — the per-tenant cut applied above
// the (possibly wider) shared acquisition. 0 for plans without a TOP
// clause: they keep the full ranking.
func (c *Cursor) cutK() int {
	switch c.plan.Kind {
	case query.PlanSnapshotTopK, query.PlanHistoricGroupTopK:
		return c.plan.Snapshot.K
	default:
		return 0
	}
}

// capKeyFor prefixes an acquisition key with the cursor's substrate: the
// det and live schedulers keep separate groups, so their acquired-depth
// bookkeeping must not collide in the System's shared map.
func (c *Cursor) capKeyFor(key string) string {
	if c.live {
		return "live|" + key
	}
	return "det|" + key
}

// Close detaches the cursor from its scheduler seat and releases its
// admission slot. The last cursor of a shared-acquisition group dissolves
// the group (a later same-signature post re-attaches fresh operators).
// Safe to call multiple times; other cursors keep stepping undisturbed.
// Historic (Run) cursors hold no seat — Close just frees admission.
func (c *Cursor) Close() {
	c.closeOnce.Do(func() {
		s := c.sys
		s.groupMu.Lock()
		if c.sq != nil && c.sched != nil {
			c.sched.Remove(c.sq)
			if c.groupKey != "" && c.sched.GroupSize(c.groupKey) == 0 {
				delete(s.groupCaps, c.capKeyFor(c.groupKey))
			}
		}
		if c.rq != nil {
			s.rcoord.Remove(c.rq)
			if c.groupKey != "" && s.rcoord.GroupSize(c.groupKey) == 0 {
				delete(s.remoteKeys, c.groupKey)
			}
		}
		s.groupMu.Unlock()
		if c.admitted {
			s.admission.Release(c.tenant)
		}
	})
}

// mergeFunc adapts the cursor's fed merger to the engine's coordinator
// hook (nil on flat deployments — answers pass through).
func (c *Cursor) mergeFunc() engine.MergeFunc {
	if c.merger == nil {
		return nil
	}
	return c.merger.Merge
}

// Step runs one epoch of a continuous query.
func (c *Cursor) Step() (StepResult, error) {
	return c.StepContext(context.Background())
}

// StepContext is Step with cancellation. On the live substrate a
// cancelled step returns promptly while the in-flight epoch completes on
// the deployment's own goroutines — its outcome is re-buffered, so the
// next Step resumes the epoch stream without a gap and nothing leaks. On
// the deterministic substrate cancellation is observed between epochs.
func (c *Cursor) StepContext(ctx context.Context) (StepResult, error) {
	if !c.Continuous() {
		return StepResult{}, fmt.Errorf("kspot: historic query %q executes with Run, not Step", c.plan.Query)
	}
	if c.live {
		if _, err := c.transports(); err != nil {
			return StepResult{}, err
		}
		out, err := c.sched.StepContext(ctx, c.sq)
		if err != nil {
			return StepResult{}, err
		}
		return c.result(out), nil
	}
	if c.sys.Remote() {
		// Remote cursors advance on the remote coordinator's shared
		// lock-step clock; every shard process senses once per epoch and
		// acquires once per signature group over the wire. A shard loss
		// surfaces here, on this cursor, tagged with the shard's name —
		// other cursors (and the other shards' state machines) continue.
		if err := ctx.Err(); err != nil {
			return StepResult{}, err
		}
		out, err := c.sys.rcoord.Step(c.rq)
		if err != nil {
			return StepResult{}, err
		}
		if out.Err != nil {
			return StepResult{}, out.Err
		}
		return c.result(out), nil
	}
	// Deterministic cursors advance on the System's shared scheduler.
	// Cancellation is observed here, between epochs: once this cursor
	// demands an epoch the deterministic substrate runs it to completion,
	// so the stream can never skip an epoch.
	if err := ctx.Err(); err != nil {
		return StepResult{}, err
	}
	if _, err := c.transports(); err != nil {
		return StepResult{}, err
	}
	out, err := c.sched.Step(c.sq)
	if err != nil {
		return StepResult{}, err
	}
	return c.result(out), nil
}

// result scores an epoch outcome against the exact oracle over the union
// of the shards' readings.
func (c *Cursor) result(out engine.Outcome) StepResult {
	exact := topk.ExactSnapshot(out.Readings, c.plan.Snapshot)
	return StepResult{
		Epoch:   out.Epoch,
		Answers: out.Answers,
		Exact:   exact,
		Correct: model.EqualAnswers(out.Answers, exact),
	}
}

// source returns the per-epoch reading source; GROUP BY ... WITH HISTORY
// queries filter locally first (§III-B): each node's "reading" is the
// aggregate of its buffered window ending at the current epoch
// (trace.WindowAgg — remote shard servers derive the same source, so the
// override readings match across substrates bit for bit).
func (c *Cursor) source() trace.Source {
	if c.plan.Kind == query.PlanHistoricGroupTopK {
		return trace.WindowAgg(c.sys.source, c.plan.History, c.plan.Snapshot.Agg)
	}
	return c.sys.source
}

// Run executes a historic query over the last Window epochs of buffered
// history (the simulator materializes each node's window through
// storage.Window, standing in for the motes' MicroHash-indexed flash
// buffers). On a federated deployment every shard runs the historic
// operator over its own windows and the coordinator merges the shard
// rankings with a two-phase threshold round (fed.HistoricMerger), exact
// and byte-identical to the flat run; coordinator backhaul is accounted
// in FederationStats.
func (c *Cursor) Run() ([]Answer, error) {
	if c.Continuous() {
		return nil, fmt.Errorf("kspot: continuous query %q advances with Step, not Run", c.plan.Query)
	}
	if c.sys.Remote() {
		return c.runRemote()
	}
	var tps []engine.Transport
	if c.live {
		// One-shot runs bypass the scheduler's epoch lock-step, so they
		// register with the System: Close waits registered runs out before
		// stopping any shard's live deployment (a federated run must never
		// find one shard's Live torn down mid-protocol).
		liveTPs, sched, release, err := c.sys.beginLiveRun()
		if err != nil {
			return nil, err
		}
		defer release()
		c.tps, c.sched = liveTPs, sched
		tps = liveTPs
	} else {
		var err error
		tps, err = c.transports()
		if err != nil {
			return nil, err
		}
	}
	if len(tps) == 1 {
		op, err := historicOperator(c.algo)
		if err != nil {
			return nil, err
		}
		data, err := c.bufferWindows(tps[0])
		if err != nil {
			return nil, err
		}
		return op.Run(tps[0], c.plan.Historic, data)
	}

	// Federated: one historic shard execution per deployment, fanned out by
	// the coordinator (concurrently on the live substrate), merged with the
	// coordinator tier's threshold round.
	coord := c.historicCoordinator(tps)
	shards := make([]fed.HistoricShard, coord.Shards())
	err := coord.RunShards(c.live, func(i int, d *engine.Deployment) error {
		op, err := historicOperator(c.algo)
		if err != nil {
			return err
		}
		data, err := c.bufferWindows(d.Transport())
		if err != nil {
			return err
		}
		shards[i] = &fed.OperatorShard{Op: op, Tp: d.Transport(), Q: c.plan.Historic, Data: data}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m, err := fed.NewHistoric(c.plan.Historic, fed.Config{}, c.sys.fedStats)
	if err != nil {
		return nil, err
	}
	return m.Run(shards, c.live)
}

// runRemote executes a historic query on a remote deployment. Each shard
// process buffers its own windows and runs the historic operator locally;
// only shard-level results cross the wire — the shard's local TOP-shipK
// partial sums, then the sums the coordinator's threshold round targets
// in phase 2 (fed.HistoricMerger, identical to the in-process federation,
// so the merged ranking is byte-identical to the flat run). The whole
// round runs serialized against epoch rounds: its per-shard calls must
// not interleave another cursor's sense/acquire pair on the shard state
// machines.
func (c *Cursor) runRemote() ([]Answer, error) {
	if _, err := historicOperator(c.algo); err != nil {
		return nil, err
	}
	exec := c.sys.nextQueryID()
	remotes := c.sys.remoteClients()
	execs := make([]*wire.HistoricExec, len(remotes))
	for i, cl := range remotes {
		execs[i] = cl.Historic(exec, string(c.algo), c.plan.Historic)
	}
	defer func() {
		for _, h := range execs {
			h.Release()
		}
	}()
	if len(execs) == 1 {
		var answers []Answer
		err := c.sys.rcoord.Serialized(func() error {
			var err error
			answers, err = execs[0].Run()
			return err
		})
		return answers, err
	}
	shards := make([]fed.HistoricShard, len(execs))
	for i, h := range execs {
		shards[i] = h
	}
	m, err := fed.NewHistoric(c.plan.Historic, fed.Config{}, c.sys.fedStats)
	if err != nil {
		return nil, err
	}
	var answers []Answer
	err = c.sys.rcoord.Serialized(func() error {
		var err error
		answers, err = m.Run(shards, true)
		return err
	})
	return answers, err
}

// bufferWindows materializes a transport's per-node windows for this
// cursor's historic query, epoch-aligned across shards (one flat trace
// source, global node ids).
func (c *Cursor) bufferWindows(tp engine.Transport) (topk.HistoricData, error) {
	series, err := storage.BufferSeries(tp.Topology().SensorNodes(), c.plan.Historic.Window, c.sys.source.Sample)
	if err != nil {
		return nil, err
	}
	return topk.HistoricData(series), nil
}

// historicCoordinator returns the coordinator driving this cursor's
// historic shard executions: the scheduler's on the live substrate (it
// already holds the shard deployments), a private one over the
// deterministic shard transports otherwise.
func (c *Cursor) historicCoordinator(tps []engine.Transport) *engine.Coordinator {
	if c.live {
		return c.sched.Coordinator()
	}
	deps := make([]*engine.Deployment, len(tps))
	for i, tp := range tps {
		deps[i] = engine.NewDeployment(c.sys.scenario.ShardName(i), tp, c.sys.source)
	}
	return engine.NewCoordinator(deps...)
}
