package kspot

import (
	"context"
	"fmt"
	"sync"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/topk/fed"
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

	merger *fed.Merger // nil on flat deployments

	// A continuous cursor is a seat on the System's lock-step scheduler,
	// whatever its shards are. Cursors whose queries share a sensing
	// signature (groupKey) ride ONE in-network acquisition per epoch; the
	// cursor's own merge and TOP-K cut run above the shared view. A historic
	// cursor holds no seat and runs serialized against the scheduler's
	// epoch rounds.
	sched *engine.Scheduler
	sq    *engine.ScheduledQuery

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
	Epoch Epoch
	// Answers are read-only: they may be a prefix of the ranking the
	// cursor's acquisition group shares with its other cursors. Copy them
	// before modifying.
	Answers []Answer
	// Exact is the oracle answer for the same epoch over the union of
	// every shard's readings (the simulator knows ground truth; a real
	// deployment would not). The ranking behind it is computed once per
	// epoch and shared by every cursor that ran on the union; this slice
	// is the cursor's own copy of its TOP-K prefix, the caller's to keep
	// or modify. StepFrame leaves it nil.
	Exact []Answer
	// Correct reports whether Answers equal the exact answer.
	Correct bool
}

// Plan describes how the router dispatched the query.
func (c *Cursor) Plan() string { return c.plan.Kind.String() }

// Query returns the canonical query text.
func (c *Cursor) Query() string { return c.plan.Query }

// Continuous reports whether the cursor is advanced with Step (snapshot
// and basic queries) rather than executed once with Run.
func (c *Cursor) Continuous() bool {
	return c.plan.Kind != query.PlanHistoricTopK
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
	// Validate the name here so a bad algorithm fails the Post, not the
	// first Step in some shard process.
	if _, err := snapshotOperator(algo); err != nil {
		return err
	}
	// Every continuous cursor of a System shares its lock-step scheduler:
	// the epoch is sensed once however many queries are posted, and
	// same-signature queries share one acquisition.
	if c.sched.Shards() > 1 {
		m, err := fed.New(c.plan.Snapshot, fed.Config{}, c.sys.fedStats)
		if err != nil {
			return err
		}
		c.merger = m
	}

	// Schedule under the sensing signature. The first query of a signature
	// attaches its own plan on every shard — the SQL, which each shard
	// re-derives the identical operator from (internal/topk/registry) — and
	// later ones join that in-network acquisition, re-attaching it at their
	// own K first when they need a deeper ranking than it was attached at.
	// Group bookkeeping is serialized across posts and closes by groupMu.
	key := string(algo) + "|" + c.plan.SenseKey
	s := c.sys
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	st := s.groups[key]
	if st == nil || c.plan.Snapshot.K > st.cap {
		next := &groupState{id: s.nextQueryID(), cap: c.plan.Snapshot.K, algo: algo, plan: c.plan}
		err := attachGroup(s.shards, next)
		if err == nil && st != nil {
			err = c.sched.RepointGroup(key, next.id)
		}
		if err != nil {
			detachGroup(s.shards, next.id)
			return err
		}
		s.swapGroup(key, next)
		st = next
	}
	c.groupKey = key
	c.sq = c.sched.Schedule(engine.QuerySpec{Key: key, Query: st.id, Merge: c.mergeFunc(), CutK: c.cutK()})
	return nil
}

// attachGroup attaches a group's acquisition on every one of shards under
// the group's id: each shard plans the SQL and binds its own operator
// (shardHandle.Attach), so the attachment is the same bits in process and
// over the wire.
func attachGroup(shards []shardHandle, g *groupState) error {
	for _, h := range shards {
		if err := h.Attach(g.id, string(g.algo), g.plan.Query); err != nil {
			return err
		}
	}
	return nil
}

// detachGroup releases an attachment on every one of shards. Best
// effort: a shard that cannot be reached to forget a query is one the next
// Step reports anyway. Callers hold groupMu.
func detachGroup(shards []shardHandle, id uint32) {
	for _, h := range shards {
		h.Detach(id)
	}
}

// swapGroup points a group's bookkeeping at its new attachment — nil when
// the group dissolved — and releases the one it replaces on every shard:
// the single place an attachment is let go. Callers hold groupMu.
func (s *System) swapGroup(groupKey string, next *groupState) {
	if old := s.groups[groupKey]; old != nil {
		detachGroup(s.shards, old.id)
	}
	if next == nil {
		delete(s.groups, groupKey)
	} else {
		s.groups[groupKey] = next
	}
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

// Close detaches the cursor from its scheduler seat and releases its
// admission slot. The last cursor of a shared-acquisition group dissolves
// the group — its attachment is released on every shard, and a later
// same-signature post attaches afresh. Safe to call multiple times; other
// cursors keep stepping undisturbed. Historic (Run) cursors hold no seat —
// Close just frees admission.
func (c *Cursor) Close() {
	c.closeOnce.Do(func() {
		s := c.sys
		if c.sq != nil {
			s.groupMu.Lock()
			c.sched.Remove(c.sq)
			if c.sched.GroupSize(c.groupKey) == 0 {
				s.swapGroup(c.groupKey, nil)
			}
			s.groupMu.Unlock()
		}
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

// Step runs one epoch of a continuous query. The deployment keeps at most
// 200 epochs for a cursor that other cursors' steps have run ahead of: one
// left further behind steps through the epochs kept for it and then fails
// every Step with a *LagError.
func (c *Cursor) Step() (StepResult, error) {
	return c.StepContext(context.Background())
}

// StepContext is Step with cancellation. A cancelled step returns promptly
// while the in-flight epoch completes on the deployment's own goroutines —
// its outcome is re-buffered, so the next Step resumes the epoch stream
// without a gap and nothing leaks. A shard loss on a remote deployment
// surfaces here, on this cursor, tagged with the shard's name — other
// cursors (and the other shards' state machines) continue.
func (c *Cursor) StepContext(ctx context.Context) (StepResult, error) {
	if !c.Continuous() {
		return StepResult{}, fmt.Errorf("kspot: historic query %q executes with Run, not Step", c.plan.Query)
	}
	out, err := c.sched.StepContext(ctx, c.sq)
	if err != nil {
		return StepResult{}, err
	}
	return c.result(out), nil
}

// StepFrame steps every cursor of cursors one epoch in one scheduler call
// and hands fn each result in cursor order: fn(i, res, err) for
// cursors[i]. It is Step on each cursor in turn without the per-cursor
// overhead — the epoch frame a server publishes — and it scores Correct
// in place against the epoch's shared oracle, so res.Exact is nil. A
// cursor that cannot step (closed, historic, or another System's) gets its
// own error and the others still step. The System's seat and outcome
// buffers are reused across calls, so a steady-state frame allocates
// nothing of its own. A cursor stepped here must not be stepped
// concurrently through Step or StepContext as well.
func (s *System) StepFrame(cursors []*Cursor, fn func(i int, res StepResult, err error)) {
	// The buffers are taken, not locked, for the frame: fn runs with no
	// lock held, and a concurrent frame starts from empty buffers.
	s.frameMu.Lock()
	seats, outs := s.frameSeats[:0], s.frameOuts
	s.frameSeats, s.frameOuts = nil, nil
	s.frameMu.Unlock()
	for _, c := range cursors {
		var sq *engine.ScheduledQuery
		if c.sys == s && c.Continuous() {
			sq = c.sq
		}
		seats = append(seats, sq)
	}
	outs = s.sched.StepFrame(seats, outs)
	for i, c := range cursors {
		switch out := outs[i]; {
		case seats[i] == nil && c.sys != s:
			fn(i, StepResult{}, fmt.Errorf("kspot: query %q belongs to another System", c.plan.Query))
		case seats[i] == nil:
			fn(i, StepResult{}, fmt.Errorf("kspot: historic query %q executes with Run, not Step", c.plan.Query))
		case out.Err != nil:
			fn(i, StepResult{}, out.Err)
		default:
			fn(i, StepResult{
				Epoch:   out.Epoch,
				Answers: out.Answers,
				Correct: out.Oracle.Matches(c.plan.Snapshot.Agg, c.plan.Snapshot.K, out.Answers),
			}, nil)
		}
	}
	// Keep the arrays, not what they point at: an outcome pins its epoch's
	// readings and oracle.
	clear(seats)
	clear(outs)
	s.frameMu.Lock()
	s.frameSeats, s.frameOuts = seats, outs
	s.frameMu.Unlock()
}

// result scores an epoch outcome against the epoch's exact oracle over the
// union of the shards' readings: this cursor's K-prefix of its aggregate's
// ranking (topk.ExactSnapshot over out.Readings, computed once for every
// cursor of the epoch).
func (c *Cursor) result(out engine.Outcome) StepResult {
	exact := out.Oracle.Exact(c.plan.Snapshot.Agg, c.plan.Snapshot.K)
	return StepResult{
		Epoch:   out.Epoch,
		Answers: out.Answers,
		Exact:   exact,
		Correct: model.EqualAnswers(out.Answers, exact),
	}
}

// Run executes a historic query over the last Window epochs of buffered
// history (each shard materializes its nodes' windows through
// storage.BufferSeries, standing in for the motes' flash buffers). Every
// shard buffers its own windows and runs the historic operator locally; only
// shard-level results cross the shard contract — on a federated deployment
// the shard's local TOP-shipK partial sums, then the sums the coordinator's
// two-phase threshold round targets (fed.HistoricMerger), exact and
// byte-identical to the flat run; coordinator backhaul is accounted in
// FederationStats. No shard keeps anything between the phases: the second
// re-reads the instants it fetches, which the epoch lock held across both
// phases leaves as the first read them. The run holds the scheduler's
// epoch lock throughout (Scheduler.Serialized); after Close it returns the
// scheduler's closed error.
func (c *Cursor) Run() ([]Answer, error) {
	if c.Continuous() {
		return nil, fmt.Errorf("kspot: continuous query %q advances with Step, not Run", c.plan.Query)
	}
	shards := c.sys.handles()
	var answers []Answer
	run := func() (err error) {
		if len(shards) == 1 {
			answers, _, err = shards[0].HistoricTopK(string(c.algo), c.plan.Historic)
			return err
		}
		m, err := fed.NewHistoric(c.plan.Historic, fed.Config{}, c.sys.fedStats)
		if err != nil {
			return err
		}
		hosts := make([]fed.HistoricHost, len(shards))
		for i, h := range shards {
			hosts[i] = h
		}
		answers, err = m.Run(string(c.algo), hosts)
		return err
	}
	// The whole round runs serialized against epoch rounds: its per-shard
	// calls must not interleave another cursor's epoch round on the shards'
	// state machines, and Close, which takes the same lock, cannot tear a
	// shard down under it.
	err := c.sched.Serialized(run)
	return answers, err
}
