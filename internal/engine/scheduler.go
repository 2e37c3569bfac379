package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kspot/internal/model"
	"kspot/internal/trace"
)

// EpochRunner is the slice of an attached snapshot operator a shard
// drives: one acquisition round per epoch. topk.SnapshotOperator satisfies
// it after Attach.
type EpochRunner interface {
	Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error)
}

// MergeFunc combines per-shard answer rankings into the global answer —
// the coordinator tier's merge step. shardAnswers[i] is shard i's local
// ranking for the epoch; internal/topk/fed provides the TPUT-style
// threshold implementation. A nil MergeFunc is legal only on single-shard
// deployments (the answers pass through).
type MergeFunc func(shardAnswers [][]model.Answer) ([]model.Answer, error)

// Outcome is one epoch's result for one scheduled query. Readings and
// Oracle belong to the epoch and are shared by every outcome that ran on
// the same union.
type Outcome struct {
	Epoch model.Epoch
	// Answers are the query's ranking for the epoch: its merge's fresh
	// slice, or a capacity-capped prefix of its group's ranking, which
	// other members of the group may share. Treat as read-only.
	Answers []model.Answer
	// Readings are the epoch's per-node inputs as this query saw them,
	// unioned across every shard (shared across queries unless the query
	// declared its own source). Treat as read-only.
	Readings map[model.NodeID]model.Reading
	// Oracle is the exact answer over Readings, one per union per epoch
	// (nil on an epoch whose rounds failed).
	Oracle *Oracle
	// Err is the shard's, operator's or merge's error for this epoch, if
	// any.
	Err error
}

// ScheduledQuery is one query's seat in the scheduler. Epoch outcomes are
// produced in lock-step for every scheduled query and buffered here, at
// most maxPending of them, until the query's cursor consumes them.
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
	lagged  *LagError // set once the seat fell maxPending behind; guarded by mu
}

// maxPending bounds the outcomes one seat buffers ahead of its cursor: a
// seat that falls this far behind stops buffering (an Outcome pins its
// epoch's readings map and oracle), keeps what it holds and, once drained,
// fails every Step with a *LagError, while every other seat steps on. 200
// is the deepest lag a cursor stepped from its own goroutine can reach in
// this module's tests (16 cursors of 200 epochs each), so none of them
// ever meets it.
const maxPending = 200

// LagError is the Step error of a seat that fell maxPending epochs behind
// the scheduler: Epoch and every epoch after it were never buffered for it.
type LagError struct {
	Epoch model.Epoch
}

func (e *LagError) Error() string {
	return fmt.Sprintf("engine: query fell %d epochs behind; epoch %d and later were not kept for it", maxPending, e.Epoch)
}

// buffer queues an epoch's outcome for the seat — unless the seat has
// fallen maxPending behind, which ends its buffering for good. Caller holds
// the scheduler's mu.
func (sq *ScheduledQuery) buffer(out Outcome) {
	switch {
	case sq.lagged != nil:
	case len(sq.pending) >= maxPending:
		sq.lagged = &LagError{Epoch: out.Epoch}
	default:
		sq.pending = append(sq.pending, out)
	}
}

// pop consumes the query's oldest buffered outcome. The queue shifts down
// in place and keeps its backing array — in lock-step serving it holds one
// element, and re-slicing past it would cost the next epoch's append a
// fresh array per member. The vacated slot is zeroed: an Outcome pins its
// epoch's readings map and oracle.
func (sq *ScheduledQuery) pop() Outcome {
	out := sq.pending[0]
	n := copy(sq.pending, sq.pending[1:])
	sq.pending[n] = Outcome{}
	sq.pending = sq.pending[:n]
	return out
}

// acqGroup is one shared in-network acquisition: the query id every shard
// runs it under, and the member queries whose answers derive from it.
// Queries scheduled under the same non-empty key join one group — the
// network runs ONE acquisition per group per epoch and the members' merges
// fan out from it at the base station. A query scheduled without a key
// gets a private singleton group.
type acqGroup struct {
	key     string
	query   uint32 // the id attached on every shard for this group
	owned   bool   // query was attached by the scheduler (QuerySpec.Ops) and is its to detach
	src     trace.Source
	members []*ScheduledQuery
}

// QuerySpec declares one query's seat for Schedule. When Key names an
// existing group, Query, Ops and Src are ignored — the query joins the
// group's shared acquisition and only its own Merge/CutK stage runs per
// epoch.
type QuerySpec struct {
	// Key is the shared-acquisition key (kspot derives it from the plan's
	// SenseKey plus the resolved algorithm). Empty = private acquisition.
	Key string
	// Query is the id the caller attached the group's acquisition under on
	// every shard (Deployment.Attach in-process, an attach message over the
	// wire) — what each epoch round names the group by. The attachment
	// stays the caller's to release. Used only when the key's group does
	// not exist yet (or Key is empty) and Ops is nil.
	Query uint32
	// Ops is the in-process shorthand for Query: one acquisition runner per
	// shard, index-aligned with the scheduler's Deployments, which the
	// scheduler attaches under an id of its own and detaches when the group
	// dissolves or widens.
	Ops []EpochRunner
	// Merge is this query's own coordinator-tier merge (nil on flat
	// deployments). Members of one group each run their own merge over the
	// group's shared per-shard rankings.
	Merge MergeFunc
	// Src, when non-nil, overrides the per-node readings for an Ops group
	// (node-local window aggregation). Like Ops, it binds at group creation.
	Src trace.Source
	// CutK, when > 0, caps this member's merged answers at the top CutK of
	// the group ranking — the per-tenant TOP-K cut above the shared view. A
	// group acquiring at a wider K than a member asked for hands the member
	// a capacity-capped prefix of the group's ranking: an append to it
	// reallocates, never writing into another member's answers.
	CutK int
}

// Scheduler drives several queries over one deployment — N shards, each
// behind the one shard contract (RemoteShard.EpochRound), in-process
// Deployments and wire clients alike — in epoch lock-step: each epoch
// every shard gets ONE round that senses it once (one idle charge, one
// sensing sweep) and runs every acquisition group over the same readings,
// and the scheduler merges the shard rankings per member query. This is
// how one KSpot server serves many posted cursors without multiplying the
// per-epoch acquisition cost.
//
// Stepping is demand-driven: the epoch advances when a query with no
// buffered outcome is stepped, and the outcomes of the other queries are
// buffered until their cursors catch up; StepFrame steps a whole set of
// seats in one call. A query whose shard fails
// mid-sweep receives the error on its own outcome; the lock-step of the
// remaining queries is never wedged. All methods are safe for concurrent
// use.
type Scheduler struct {
	mu      sync.Mutex
	shards  []*RemoteDeployment
	queries []*ScheduledQuery
	groups  []*acqGroup          // acquisition order: one entry per distinct acquisition
	byKey   map[string]*acqGroup // keyed (shared) groups only
	epoch   model.Epoch
	closed  bool
	ownID   uint32 // last id given to an Ops group; counts down from MaxUint32, away from callers' ids

	nshards atomic.Int32 // len(shards), readable without mu

	// control counts the control-plane callers (Schedule, Remove,
	// RepointGroup, GroupSize) queued for mu. A saturated stepping loop
	// re-takes mu within nanoseconds of releasing it, so a waiter the unlock
	// woke keeps losing the race until the mutex's 1 ms starvation hand-off;
	// a step that finds the count non-zero yields its processor once before
	// locking, which runs the woken waiter while mu is free.
	control atomic.Int32
}

// NewScheduler returns a scheduler over in-process shard deployments.
func NewScheduler(deps ...*Deployment) *Scheduler {
	shards := make([]*RemoteDeployment, len(deps))
	for i, d := range deps {
		shards[i] = NewRemoteDeployment(d.name, d)
	}
	return NewShardScheduler(shards...)
}

// NewShardScheduler returns a scheduler over shards of any kind.
func NewShardScheduler(shards ...*RemoteDeployment) *Scheduler {
	if len(shards) == 0 {
		panic("engine: scheduler needs at least one shard")
	}
	s := &Scheduler{byKey: make(map[string]*acqGroup)}
	s.install(shards)
	return s
}

func (s *Scheduler) install(shards []*RemoteDeployment) {
	s.shards = shards
	s.nshards.Store(int32(len(shards)))
}

// eachLocal calls fn for every in-process shard, with its shard index.
func (s *Scheduler) eachLocal(fn func(i int, d *Deployment)) {
	for i, sh := range s.shards {
		if d, ok := sh.shard.(*Deployment); ok {
			fn(i, d)
		}
	}
}

// lockControl takes mu for a control-plane call, ahead of the steppers.
func (s *Scheduler) lockControl() {
	s.control.Add(1)
	s.mu.Lock()
	s.control.Add(-1)
}

// giveWay is called by a step about to take mu: see Scheduler.control.
func (s *Scheduler) giveWay() {
	if s.control.Load() != 0 {
		runtime.Gosched()
	}
}

// Shards returns the number of shards. It does not take the epoch lock: a
// post reads it on its way to Schedule, and at saturation every contended
// acquisition of that lock waits out a starvation hand-off.
func (s *Scheduler) Shards() int { return int(s.nshards.Load()) }

// Add schedules a query with a private acquisition: Schedule with Ops,
// Merge and Src only.
func (s *Scheduler) Add(ops []EpochRunner, merge MergeFunc, src trace.Source) *ScheduledQuery {
	return s.Schedule(QuerySpec{Ops: ops, Merge: merge, Src: src})
}

// Schedule registers a query, joining (or creating) the shared-acquisition
// group its Key names — see QuerySpec. A query joins at the current epoch;
// earlier outcomes are not replayed.
func (s *Scheduler) Schedule(spec QuerySpec) *ScheduledQuery {
	s.lockControl()
	defer s.mu.Unlock()
	sq := &ScheduledQuery{merge: spec.Merge, cutK: spec.CutK}
	var g *acqGroup
	if spec.Key != "" {
		g = s.byKey[spec.Key]
	}
	if g == nil {
		g = &acqGroup{key: spec.Key, query: spec.Query, src: spec.Src}
		if spec.Ops != nil {
			s.attachOps(g, spec.Ops)
		}
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

// attachOps attaches one runner per in-process shard under a fresh
// scheduler-owned id and points the group at it, releasing the owned id it
// replaces. A shard left without a runner (too few ops, or not in-process)
// reports the query unattached on the group's outcome each epoch.
func (s *Scheduler) attachOps(g *acqGroup, ops []EpochRunner) {
	s.detachOwned(g)
	s.ownID--
	s.eachLocal(func(i int, d *Deployment) {
		if i < len(ops) {
			d.Attach(s.ownID, ops[i], g.src)
		}
	})
	g.query, g.owned = s.ownID, true
}

func (s *Scheduler) detachOwned(g *acqGroup) {
	if !g.owned {
		return
	}
	s.eachLocal(func(_ int, d *Deployment) { d.Detach(g.query) })
	g.owned = false
}

// GroupSize reports how many scheduled queries share the key's
// acquisition group (0: no such group).
func (s *Scheduler) GroupSize(key string) int {
	s.lockControl()
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
	g, err := s.keyed(key)
	if err == nil {
		s.attachOps(g, ops)
	}
	return err
}

// RepointGroup is WidenGroup for a caller-attached acquisition: the group
// is acquired under query from the next epoch on. The attachment it
// replaces is the caller's to release once this returns — no round naming
// it can be in flight any more.
func (s *Scheduler) RepointGroup(key string, query uint32) error {
	s.lockControl()
	defer s.mu.Unlock()
	g, err := s.keyed(key)
	if err == nil {
		s.detachOwned(g)
		g.query = query
	}
	return err
}

func (s *Scheduler) keyed(key string) (*acqGroup, error) {
	if g := s.byKey[key]; g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("engine: no shared-acquisition group %q to widen", key)
}

// Remove unschedules a query; its buffered outcomes are discarded. The
// last member leaving a shared group dissolves the group — a later
// Schedule under the same key creates a fresh acquisition.
func (s *Scheduler) Remove(sq *ScheduledQuery) {
	s.lockControl()
	defer s.mu.Unlock()
	if sq.removed {
		return
	}
	sq.removed = true
	sq.pending = nil
	for i, q := range s.queries {
		if q == sq {
			s.queries = append(s.queries[:i], s.queries[i+1:]...)
			break
		}
	}
	g := sq.group
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
		s.detachOwned(g)
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
// scheduler's own goroutine. Every shard is safe to finish an epoch behind
// a cancelled caller: an in-process one is a network that carries its own
// lock.
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
	// A context that can never be cancelled (Background) can never abandon
	// the step either: it runs inline, with no goroutine and no hand-off.
	if ctx.Done() == nil {
		return s.Step(sq)
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

// StepFrame steps every seat of sqs once, in order, under one acquisition
// of the epoch lock — the epoch frame a server publishes: it is Step on
// each seat in turn, so the first seat with nothing buffered runs the
// epoch and the rest pop what it buffered. outs[i] is sqs[i]'s outcome,
// its own error included: a removed seat or a closed scheduler fails that
// entry and the other seats still step. A nil seat's entry is the zero
// Outcome. The result reuses outs' array, so a caller that passes back
// what it got allocates nothing per frame. A seat stepped here must not be
// stepped concurrently through Step or StepContext as well, or the two
// callers split its epoch stream between them.
func (s *Scheduler) StepFrame(sqs []*ScheduledQuery, outs []Outcome) []Outcome {
	outs = slices.Grow(outs[:0], len(sqs))[:len(sqs)]
	s.giveWay()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sq := range sqs {
		outs[i] = Outcome{}
		if sq != nil {
			outs[i], _ = s.stepLocked(sq)
		}
	}
	return outs
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
	s.giveWay()
	if !s.mu.TryLock() {
		return Outcome{}, false
	}
	defer s.mu.Unlock()
	if s.closed || sq.removed || len(sq.pending) == 0 {
		return Outcome{}, false
	}
	return sq.pop(), true
}

// step pops the query's next outcome, running an epoch if none is
// buffered. popped reports whether an outcome was actually consumed (so a
// cancelled StepContext can re-buffer it).
func (s *Scheduler) step(sq *ScheduledQuery) (Outcome, bool, error) {
	s.giveWay()
	s.mu.Lock()
	defer s.mu.Unlock()
	out, popped := s.stepLocked(sq)
	return out, popped, out.Err
}

// stepLocked is step's body under mu; a closed scheduler, a removed seat or
// a drained lagging one yields an outcome carrying only the error.
func (s *Scheduler) stepLocked(sq *ScheduledQuery) (out Outcome, popped bool) {
	switch {
	case s.closed:
		return Outcome{Err: errClosed}, false
	case sq.removed:
		return Outcome{Err: errRemoved}, false
	}
	if len(sq.pending) == 0 {
		if sq.lagged != nil {
			return Outcome{Err: sq.lagged}, false
		}
		s.runEpochLocked()
	}
	return sq.pop(), true
}

// pushFront re-buffers an outcome a cancelled StepContext abandoned, so
// the epoch stream stays gapless for the next Step. On a closed or
// removed scheduler seat the outcome is dropped instead: no Step can ever
// consume it (step refuses first), so re-buffering would only pin the
// epoch's readings map and oracle alive behind a cursor the caller still
// holds — the federated teardown path (one shard's cancelled epoch
// re-buffering while the deployment Closes) must not retain dead state.
func (s *Scheduler) pushFront(sq *ScheduledQuery, out Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sq.removed || s.closed {
		return
	}
	sq.pending = slices.Insert(sq.pending, 0, out)
}

// Close rejects further Steps. It blocks until any in-flight epoch has
// completed — including an in-process shard's pipelined background
// presample of the next epoch, which is drained and discarded (its charges
// were never committed) — so the transports can be torn down safely
// afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.eachLocal(func(_ int, d *Deployment) { d.Drain() })
}

type schedulerError string

func (e schedulerError) Error() string { return string(e) }

const (
	errRemoved = schedulerError("engine: query was removed from the scheduler")
	errClosed  = schedulerError("engine: scheduler is closed")
)

// runEpochLocked executes one shared epoch for every scheduled query: ONE
// round per shard carries the sense and every group's acquisition (in
// group order — the order on each shard's state machine), all shards
// concurrently, then one pure in-memory merge and cut per member. A failed
// round poisons the whole epoch (every query buffers the error, tagged
// with the shard's name); a group's failure inside a round poisons only
// that group's members.
func (s *Scheduler) runEpochLocked() {
	e := s.epoch
	s.epoch++
	n := len(s.shards)
	qids := make([]uint32, len(s.groups))
	for gi, g := range s.groups {
		qids[gi] = g.query
	}

	senses := make([]map[model.NodeID]model.Reading, n)
	rounds := make([][]RemoteGroupResult, n)
	errs := make([]error, n)
	s.fanOut(func(i int) {
		senses[i], rounds[i], errs[i] = s.shards[i].shard.EpochRound(e, qids)
		if errs[i] == nil && len(rounds[i]) != len(qids) {
			errs[i] = fmt.Errorf("epoch round returned %d groups, want %d", len(rounds[i]), len(qids))
		}
	})
	if err := s.firstErr(errs); err != nil {
		for _, q := range s.queries {
			q.buffer(Outcome{Epoch: e, Err: err})
		}
		return
	}
	// The union, and the exact answer over it, are identical for every
	// group running on the shared sensing — one of each per epoch, not one
	// per group or per member. The oracle is only named here: the first
	// cursor to score against it builds it, outside this lock.
	union := MergeReadings(senses)
	shared := &Oracle{readings: union}

	for gi, g := range s.groups {
		perShard := make([][]model.Answer, n)
		override := false
		for i := range rounds {
			r := rounds[i][gi]
			errs[i] = r.Err
			perShard[i] = r.Acq.Answers
			override = override || r.Acq.Readings != nil
		}
		err := s.firstErr(errs)
		// Union the readings the group actually ran on: the shared sensing,
		// or the shards' derived readings when the query overrides them.
		readings, oracle := union, shared
		if err == nil && override {
			per := make([]map[model.NodeID]model.Reading, n)
			for i := range rounds {
				per[i] = rounds[i][gi].Acq.Readings
			}
			readings = MergeReadings(per)
			oracle = &Oracle{readings: readings}
		}
		// Every member runs its own merge/cut over the group's shared
		// per-shard rankings (fed.Merger never mutates its inputs), so M
		// same-key tenants cost M in-memory merges and ONE acquisition.
		for _, q := range g.members {
			out := Outcome{Epoch: e, Readings: readings, Oracle: oracle}
			switch {
			case err != nil:
				out.Err = err
			case q.merge != nil:
				out.Answers, out.Err = q.merge(perShard)
			case n == 1:
				out.Answers = perShard[0]
			default:
				out.Err = fmt.Errorf("engine: %d shards need a merge function", n)
			}
			// The group's ranking may be wider than this member asked for
			// (it acquires at the widest member K). The cut aliases it: no
			// operator or merge writes to a ranking it has returned, and
			// the capped capacity keeps an append off the rest of it.
			if q.cutK > 0 && out.Err == nil && len(out.Answers) > q.cutK {
				out.Answers = out.Answers[:q.cutK:q.cutK]
			}
			q.buffer(out)
		}
	}
}

// Install replaces the scheduler's shards — the final step of a live
// re-sharding migration. Taking the epoch lock IS the drain: no epoch
// round, historic round or shard sweep can be in flight while the swap
// happens, and the next Step fans out to the new shards. The epoch clock
// and every scheduled group carry over untouched — the caller re-attaches
// each group's query id on the new shards before installing, so group
// state needs no translation.
func (s *Scheduler) Install(shards []*RemoteDeployment) error {
	if len(shards) == 0 {
		return fmt.Errorf("engine: scheduler needs at least one shard")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.install(shards)
	return nil
}

// Serialized runs fn while holding the scheduler's epoch lock: one-shot
// multi-call protocols (the federated historic threshold round, which
// fans its own per-shard calls out) run atomically with respect to epoch
// rounds on the shard state machines. A closed scheduler runs nothing and
// returns its closed error: its shards may already be torn down.
func (s *Scheduler) Serialized(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return fn()
}

// fanOut runs fn(i) for every shard index concurrently and joins.
func (s *Scheduler) fanOut(fn func(i int)) {
	if len(s.shards) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// firstErr returns the first shard error in shard order, tagged.
func (s *Scheduler) firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: shard %s: %w", s.shards[i].name, err)
		}
	}
	return nil
}

// MergeReadings unions per-shard readings into one map for the oracle;
// the single-shard case passes its map through without copying (the flat
// hot path stays allocation-lean).
func MergeReadings(per []map[model.NodeID]model.Reading) map[model.NodeID]model.Reading {
	if len(per) == 1 {
		return per[0]
	}
	n := 0
	for _, m := range per {
		n += len(m)
	}
	out := make(map[model.NodeID]model.Reading, n)
	for _, m := range per {
		for id, r := range m {
			out[id] = r
		}
	}
	return out
}
