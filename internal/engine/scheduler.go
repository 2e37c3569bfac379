package engine

import (
	"context"
	"fmt"
	"sync"

	"kspot/internal/model"
	"kspot/internal/trace"
)

// EpochRunner is the slice of an attached snapshot operator the scheduler
// drives: one acquisition round per epoch. topk.SnapshotOperator satisfies
// it after Attach.
type EpochRunner interface {
	Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error)
}

// Outcome is one epoch's result for one scheduled query.
type Outcome struct {
	Epoch   model.Epoch
	Answers []model.Answer
	// Readings are the epoch's per-node inputs as this query saw them,
	// unioned across every shard (shared across queries unless the query
	// declared its own source). Treat as read-only.
	Readings map[model.NodeID]model.Reading
	// Err is the operator's (or merge's) error for this epoch, if any.
	Err error
}

// ScheduledQuery is one query's seat in the scheduler. Epoch outcomes are
// produced in lock-step for every scheduled query and buffered here until
// the query's cursor consumes them.
type ScheduledQuery struct {
	group *acqGroup // the shared acquisition this query rides
	merge MergeFunc // nil on single-shard deployments
	cutK  int       // >0: keep only the top cutK of the group's merged ranking

	// stepMu serializes Step/StepContext per query: a cancelled
	// StepContext's background hand-back holds it until the abandoned
	// outcome is re-buffered, so no later Step can observe the epoch
	// stream out of order. Queries never share a stepMu — one slow or
	// cancelled cursor cannot stall another's.
	stepMu sync.Mutex

	pending []Outcome // guarded by the scheduler's mu
	removed bool
}

// acqGroup is one shared in-network acquisition: the per-shard runners and
// override source that every member query's answers derive from. Queries
// scheduled under the same non-empty key join one group — the network runs
// ONE acquisition per group per epoch and the members' merges fan out from
// it at the base station. A query scheduled without a key gets a private
// singleton group (the pre-sharing behavior).
type acqGroup struct {
	key     string
	ops     []EpochRunner // one per shard deployment
	src     trace.Source  // nil → the deployment's shared readings
	members []*ScheduledQuery
}

// QuerySpec declares one query's seat for Schedule. When Key names an
// existing group, Ops and Src are ignored — the query joins the group's
// shared acquisition and only its own Merge/CutK stage runs per epoch.
type QuerySpec struct {
	// Key is the shared-acquisition key (kspot derives it from the plan's
	// SenseKey plus the resolved algorithm). Empty = private acquisition.
	Key string
	// Ops is one acquisition runner per shard deployment, index-aligned
	// with the coordinator's Deployments. Used only when the key's group
	// does not exist yet (or Key is empty).
	Ops []EpochRunner
	// Merge is this query's own coordinator-tier merge (nil on flat
	// deployments). Members of one group each run their own merge over the
	// group's shared per-shard rankings.
	Merge MergeFunc
	// Src, when non-nil, overrides the per-node readings for the group
	// (node-local window aggregation). Like Ops, it binds at group creation.
	Src trace.Source
	// CutK, when > 0, caps this member's merged answers at the top CutK of
	// the group ranking — the per-tenant TOP-K cut above the shared view. A
	// group acquiring at a wider K than a member asked for hands the member
	// a fresh prefix copy, never an alias of another member's slice.
	CutK int
}

// Scheduler drives several queries over one federated deployment — N
// shard Deployments behind one Coordinator — in epoch lock-step: each
// epoch every shard is sensed once (one idle charge, one sensing sweep per
// shard) and every scheduled query runs its per-shard acquisitions over
// the same readings, merging at the coordinator tier. On the live
// substrate all acquisitions proceed concurrently, across queries and
// across shards, their view sweeps interleaving level by level on each
// shard's network. This is how one KSpot server serves many posted cursors
// without multiplying the per-epoch acquisition cost.
//
// Stepping is demand-driven: the epoch advances when a query with no
// buffered outcome is stepped, and the outcomes of the other queries are
// buffered until their cursors catch up. A query whose shard fails
// mid-sweep receives the error on its own outcome; the lock-step of the
// remaining queries is never wedged. All methods are safe for concurrent
// use.
type Scheduler struct {
	coord *Coordinator

	mu       sync.Mutex
	queries  []*ScheduledQuery
	groups   []*acqGroup          // acquisition order: one entry per distinct acquisition
	byKey    map[string]*acqGroup // keyed (shared) groups only
	epoch    model.Epoch
	closed   bool
	pipeline int        // pipelineAuto / pipelineOn / pipelineOff
	pre      *presample // in-flight background sampling of the next epoch
}

// Pipelining modes: auto enables cross-epoch pipelining on the live
// substrate only — the deterministic simulator's transports are not safe
// against out-of-band mutation (SetNodeDown between steps) racing a
// background sample, while the live substrate serializes those under its
// own lock.
const (
	pipelineAuto = iota
	pipelineOn
	pipelineOff
)

// presample is an in-flight background sampling of the next epoch: the
// scheduler launches it once an epoch's acquisitions (all transport work)
// have finished, so it overlaps the merge/fed-round stage. The accounting
// the synchronous path would have done at sampling time is deferred to
// CommitSenseEpoch when the epoch is actually consumed — keeping ledgers,
// budgets and histories byte-identical to the unpipelined run.
type presample struct {
	epoch model.Epoch
	done  chan struct{}
	shard []map[model.NodeID]model.Reading
}

// NewScheduler returns a scheduler over the shard deployments.
func NewScheduler(deps ...*Deployment) *Scheduler {
	return &Scheduler{coord: NewCoordinator(deps...), byKey: make(map[string]*acqGroup)}
}

// Coordinator exposes the scheduler's federation tier.
func (s *Scheduler) Coordinator() *Coordinator { return s.coord }

// SetPipelining forces cross-epoch pipelining on or off, overriding the
// default (enabled on the live substrate, disabled on the deterministic
// one). With pipelining on, the next epoch's sensing is sampled on a
// background goroutine while the current epoch's merge stage runs; its
// charges are committed when the epoch is consumed, so outcomes and
// accounting are byte-identical either way. Callers that mutate a
// deterministic transport out-of-band between steps (SetNodeDown, fault
// arming) must leave pipelining off there: the background sample reads
// transport aliveness without a lock.
func (s *Scheduler) SetPipelining(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if on {
		s.pipeline = pipelineOn
	} else {
		s.pipeline = pipelineOff
	}
	if s.pipeline == pipelineOff && s.pre != nil {
		<-s.pre.done
		s.pre = nil
	}
}

// Add schedules an attached query with a private acquisition: one runner
// per shard deployment (index-aligned with the coordinator's Deployments)
// and the coordinator merge (nil for single-shard). src, when non-nil,
// overrides the per-node readings for this query only (e.g. node-local
// window aggregation); sensing is still charged once per shard, against
// the shared source. A query joins at the current epoch — earlier
// outcomes are not replayed.
func (s *Scheduler) Add(ops []EpochRunner, merge MergeFunc, src trace.Source) *ScheduledQuery {
	return s.Schedule(QuerySpec{Ops: ops, Merge: merge, Src: src})
}

// Schedule registers a query, joining (or creating) the shared-acquisition
// group its Key names — see QuerySpec. A query joins at the current epoch;
// earlier outcomes are not replayed.
func (s *Scheduler) Schedule(spec QuerySpec) *ScheduledQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	sq := &ScheduledQuery{merge: spec.Merge, cutK: spec.CutK}
	var g *acqGroup
	if spec.Key != "" {
		g = s.byKey[spec.Key]
	}
	if g == nil {
		g = &acqGroup{key: spec.Key, ops: spec.Ops, src: spec.Src}
		s.groups = append(s.groups, g)
		if spec.Key != "" {
			s.byKey[spec.Key] = g
		}
	}
	sq.group = g
	g.members = append(g.members, sq)
	s.queries = append(s.queries, sq)
	return sq
}

// GroupSize reports how many scheduled queries share the key's
// acquisition group (0: no such group).
func (s *Scheduler) GroupSize(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g := s.byKey[key]; g != nil {
		return len(g.members)
	}
	return 0
}

// WidenGroup replaces a shared group's acquisition runners — the K-cap
// escalation path: when a new member needs a wider in-network acquisition
// than the group was created with (a larger TOP K under the same sensing
// signature), the caller attaches fresh runners at the wider K and swaps
// them in before scheduling the member. The replaced runners' views are
// simply abandoned; the new runners re-run their creation phase on their
// next epoch, exactly as a newly posted query would.
func (s *Scheduler) WidenGroup(key string, ops []EpochRunner) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.byKey[key]
	if g == nil {
		return fmt.Errorf("engine: no shared-acquisition group %q to widen", key)
	}
	g.ops = ops
	return nil
}

// Remove unschedules a query; its buffered outcomes are discarded. The
// last member leaving a shared group dissolves the group — a later
// Schedule under the same key creates a fresh acquisition.
func (s *Scheduler) Remove(sq *ScheduledQuery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sq.removed = true
	sq.pending = nil
	for i, q := range s.queries {
		if q == sq {
			s.queries = append(s.queries[:i], s.queries[i+1:]...)
			break
		}
	}
	g := sq.group
	if g == nil {
		return
	}
	for i, m := range g.members {
		if m == sq {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	if len(g.members) == 0 {
		for i, gg := range s.groups {
			if gg == g {
				s.groups = append(s.groups[:i], s.groups[i+1:]...)
				break
			}
		}
		if g.key != "" {
			delete(s.byKey, g.key)
		}
	}
}

// Epoch returns the next epoch number the scheduler will run.
func (s *Scheduler) Epoch() model.Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Step returns the query's next epoch outcome, advancing the shared epoch
// when nothing is buffered for it.
func (s *Scheduler) Step(sq *ScheduledQuery) (Outcome, error) {
	sq.stepMu.Lock()
	defer sq.stepMu.Unlock()
	out, _, err := s.step(sq)
	return out, err
}

// StepContext is Step with cancellation: when ctx expires while the epoch
// is in flight, the call returns ctx.Err() immediately and the epoch
// finishes in the background — its outcome is re-buffered at the front of
// the query's queue, so the next Step observes the epoch stream without a
// gap (the per-query stepMu holds later steps out until the hand-back
// lands). Nothing leaks: the in-flight epoch runs to completion on the
// scheduler's own goroutine.
func (s *Scheduler) StepContext(ctx context.Context, sq *ScheduledQuery) (Outcome, error) {
	// An already-expired context never starts work: stepping with a dead
	// ctx would run (and charge) a full epoch in the background on every
	// call, draining node budgets for a caller that consumes nothing.
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	// In lock-step serving most calls find their outcome already buffered
	// by the cursor that ran the epoch: those are popped inline. Only a
	// call that must run an epoch (or wait for one) goes asynchronous.
	if out, ok := s.tryPop(sq); ok {
		return out, out.Err
	}
	type stepRes struct {
		out Outcome
		err error
	}
	ch := make(chan stepRes)
	abandon := make(chan struct{})
	go func() {
		sq.stepMu.Lock()
		defer sq.stepMu.Unlock()
		out, popped, err := s.step(sq)
		select {
		case ch <- stepRes{out, err}:
		case <-abandon:
			if popped {
				s.pushFront(sq, out)
			}
		}
	}()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-ctx.Done():
		close(abandon)
		return Outcome{}, ctx.Err()
	}
}

// tryPop consumes the query's next buffered outcome without blocking. ok is
// false when nothing is buffered, when a lock is contended (a step or an
// epoch is in flight) or when the seat is closed or removed — all left to
// the blocking path, which waits under ctx and reports the error.
func (s *Scheduler) tryPop(sq *ScheduledQuery) (out Outcome, ok bool) {
	if !sq.stepMu.TryLock() {
		return Outcome{}, false
	}
	defer sq.stepMu.Unlock()
	if !s.mu.TryLock() {
		return Outcome{}, false
	}
	defer s.mu.Unlock()
	if s.closed || sq.removed || len(sq.pending) == 0 {
		return Outcome{}, false
	}
	out = sq.pending[0]
	sq.pending = sq.pending[1:]
	return out, true
}

// step pops the query's next outcome, running an epoch if none is
// buffered. popped reports whether an outcome was actually consumed (so a
// cancelled StepContext can re-buffer it).
func (s *Scheduler) step(sq *ScheduledQuery) (Outcome, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Outcome{}, false, errClosed
	}
	if sq.removed {
		return Outcome{}, false, errRemoved
	}
	if len(sq.pending) == 0 {
		s.runEpochLocked()
	}
	out := sq.pending[0]
	sq.pending = sq.pending[1:]
	return out, true, out.Err
}

// pushFront re-buffers an outcome a cancelled StepContext abandoned, so
// the epoch stream stays gapless for the next Step. On a closed or
// removed scheduler seat the outcome is dropped instead: no Step can ever
// consume it (step refuses first), so re-buffering would only pin the
// epoch's readings map alive behind a cursor the caller still holds —
// the federated teardown path (one shard's cancelled epoch re-buffering
// while the deployment Closes) must not retain dead state.
func (s *Scheduler) pushFront(sq *ScheduledQuery, out Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sq.removed || s.closed {
		return
	}
	sq.pending = append([]Outcome{out}, sq.pending...)
}

// Close rejects further Steps. It blocks until any in-flight epoch has
// completed — including a pipelined background presample of the next
// epoch, which is drained and discarded (its charges were never
// committed) — so the transports can be torn down safely afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.pre != nil {
		<-s.pre.done
		s.pre = nil
	}
}

type schedulerError string

func (e schedulerError) Error() string { return string(e) }

const (
	errRemoved = schedulerError("engine: query was removed from the scheduler")
	errClosed  = schedulerError("engine: scheduler is closed")
)

// runEpochLocked executes one shared epoch for every scheduled query in
// three stages: sensing (consuming the pipelined presample when one is in
// flight, then committing its deferred charges), acquisition (one
// per-shard transport sweep per acquisition GROUP — however many member
// queries each group serves), and merge (pure in-memory, one per member).
// Between acquisition and merge the transports are quiescent for the rest
// of the epoch, so that is where the next epoch's background presample
// launches — the cross-epoch pipeline.
func (s *Scheduler) runEpochLocked() {
	e := s.epoch
	s.epoch++

	// Sensing: a pipelined presample for exactly this epoch is consumed;
	// anything else (stale after SetPipelining toggles) is discarded — its
	// charges were never committed, so resampling is free of skew.
	var shard []map[model.NodeID]model.Reading
	if s.pre != nil {
		<-s.pre.done
		if s.pre.epoch == e {
			shard = s.pre.shard
		}
		s.pre = nil
	}
	if shard == nil {
		shard = s.coord.PresampleEpoch(e)
	}
	s.coord.CommitSenseEpoch(e, shard)
	// The union for the oracle is identical for every query without an
	// override source — compute it once, not once per query.
	union := MergeReadings(shard)

	// Acquisition: one per group. On the concurrent substrate all group
	// acquisitions run in parallel, across groups and across shards: the
	// Live transport supports any number of in-flight sweeps and floods.
	// The deterministic simulator is a single-threaded state machine per
	// shard, so there the groups run in sequence (each group still fans
	// out across shards — distinct shards are distinct state machines).
	// Decorators (fault injection) are stripped first — they forward
	// concurrency-safely.
	_, live := Baseof(s.coord.deps[0].tp).(*Live)
	acqs := make([]*acquisition, len(s.groups))
	errs := make([]error, len(s.groups))
	var wg sync.WaitGroup
	for i, g := range s.groups {
		if live {
			wg.Add(1)
			go func(i int, g *acqGroup) {
				defer wg.Done()
				acqs[i], errs[i] = s.coord.acquire(e, g.ops, shard, g.src)
			}(i, g)
		} else {
			acqs[i], errs[i] = s.coord.acquire(e, g.ops, shard, g.src)
		}
	}
	wg.Wait()

	// All transport work for epoch e is done; overlap the next epoch's
	// sensing with the merge stage.
	if s.pipeline == pipelineOn || (s.pipeline == pipelineAuto && live) {
		pre := &presample{epoch: e + 1, done: make(chan struct{})}
		s.pre = pre
		go func() {
			pre.shard = s.coord.PresampleEpoch(e + 1)
			close(pre.done)
		}()
	}

	// Merge: coordinator-tier fed rounds, no transport access. Every member
	// of a group runs its own merge/cut over the group's shared per-shard
	// rankings (fed.Merger never mutates its inputs), so M same-key tenants
	// cost M in-memory merges and ONE in-network acquisition.
	for i, g := range s.groups {
		ga := acqs[i]
		gUnion := union
		if errs[i] == nil && ga.override {
			// Derive the override union once per group, not once per member;
			// the flag is cleared so mergeAcquisition trusts the passed union.
			gUnion = MergeReadings(ga.readings)
			ga.override = false
		}
		for _, q := range g.members {
			var out Outcome
			if errs[i] != nil {
				out = Outcome{Epoch: e, Err: errs[i]}
			} else {
				out = s.coord.mergeAcquisition(e, ga, gUnion, q.merge)
				out = q.cut(out)
			}
			q.pending = append(q.pending, out)
		}
	}
}

// cut applies the member's TOP-K prefix cut to a merged outcome. The
// group's ranking may be wider than this member asked for (the group
// acquires at the widest member K); the member keeps the top cutK. The
// prefix is copied, never aliased — members of one group must not share
// answer slices across their buffered outcomes.
func (sq *ScheduledQuery) cut(out Outcome) Outcome {
	if sq.cutK > 0 && out.Err == nil && len(out.Answers) > sq.cutK {
		out.Answers = append([]model.Answer(nil), out.Answers[:sq.cutK]...)
	}
	return out
}
