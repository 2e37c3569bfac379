package engine

// The remote substrate: a federated deployment whose shards are other
// processes behind sockets. The engine keeps the same coordinator-tier
// shape as the in-process federation (sense every shard, acquire every
// shard, union readings, merge answers) but speaks to each shard through
// the RemoteShard interface — one EpochRound call per shard per epoch;
// internal/wire's Client implements it over the framed TCP protocol.
// Per-node operations never cross the wire: a shard's operator, routing
// tree and energy ledger live in the shard process; only shard-level
// results (readings, ranked answers, partial sums, counters) do, which is
// exactly the backhaul the fed layer's Stats account.

import (
	"fmt"
	"sync"

	"kspot/internal/model"
)

// RemoteAcquisition is one shard's epoch result for one query. Readings
// is nil for queries running on the epoch's shared sensing; for queries
// with derived per-node inputs (GROUP BY ... WITH HISTORY) it carries the
// derived readings the shard ran on, so the coordinator's oracle sees the
// same inputs the in-process coordinator would.
type RemoteAcquisition struct {
	Answers  []model.Answer
	Readings map[model.NodeID]model.Reading
}

// RemoteGroupResult is one shared-acquisition group's slice of an epoch
// round: the group's acquisition, or its isolated failure.
type RemoteGroupResult struct {
	Acq RemoteAcquisition
	Err error
}

// RemoteShard is the coordinator's surface onto one remote shard process:
// the shard-level half of the Transport contract (sensing and epoch
// acquisition), with per-node operations confined to the far side.
type RemoteShard interface {
	// EpochRound idle-charges and senses the shard once for the epoch, then
	// runs one epoch of every listed attached query, in order, returning
	// the post-commit readings and one result per query. A transport-level
	// failure poisons the whole round; a single query's failure is carried
	// in its result.
	EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []RemoteGroupResult, error)
}

// RemoteRoundShard is RemoteShard's former optional extension, now the
// same contract. The frozen benchmark/ module still names it; delete it
// with the next benchmark PR.
type RemoteRoundShard = RemoteShard

// RemoteDeployment pairs a remote shard with its display name — the
// remote analogue of Deployment.
type RemoteDeployment struct {
	name  string
	shard RemoteShard
}

// NewRemoteDeployment binds a remote shard under a display name.
func NewRemoteDeployment(name string, shard RemoteShard) *RemoteDeployment {
	return &RemoteDeployment{name: name, shard: shard}
}

// Name returns the deployment's display name.
func (d *RemoteDeployment) Name() string { return d.name }

// Shard returns the remote shard handle.
func (d *RemoteDeployment) Shard() RemoteShard { return d.shard }

// RemoteCoordinator drives remote shard deployments through lock-step
// epochs, mirroring Coordinator's sense-then-acquire order. Unlike the
// in-process coordinator it serializes epochs across cursors: epoch
// rounds and one-shot historic executions must reach each shard's single
// state machine one at a time. Shard fan-out within an epoch is
// concurrent — each shard is its own process.
type RemoteCoordinator struct {
	mu   sync.Mutex
	deps []*RemoteDeployment

	// The lock-step scheduled tier (Schedule/Step): every scheduled query
	// advances on one shared epoch clock, grouped by sensing signature so
	// one wire acquisition per group serves every member — the remote
	// analogue of Scheduler's shared-acquisition groups.
	epoch   model.Epoch
	queries []*RemoteQuery
	groups  []*remoteGroup
	byKey   map[string]*remoteGroup
}

// RemoteQuery is one scheduled query on the remote lock-step tier.
type RemoteQuery struct {
	group   *remoteGroup
	merge   MergeFunc
	cutK    int
	pending []Outcome
	removed bool
}

// remoteGroup is a shared-acquisition group on the remote tier: one
// attached wire query (the widest member's plan) acquired once per epoch,
// fanned out to every member's own merge and TOP-K cut at the coordinator.
type remoteGroup struct {
	key     string
	query   uint32 // the rqid attached on every shard for this group
	members []*RemoteQuery
}

// NewRemoteCoordinator builds a coordinator over remote shards.
func NewRemoteCoordinator(deps ...*RemoteDeployment) *RemoteCoordinator {
	if len(deps) == 0 {
		panic("engine: remote coordinator needs at least one deployment")
	}
	return &RemoteCoordinator{deps: deps, byKey: make(map[string]*remoteGroup)}
}

// Schedule registers a continuous query on the lock-step tier. Queries
// sharing a non-empty key join one acquisition group: the shards run ONE
// epoch sweep for the group's attached wire query, and each member applies
// its own merge and TOP-K cut to the shared shard rankings. An empty key
// schedules a private group. query is the rqid the caller attached on
// every shard; for a joining member it is ignored — the group keeps its
// existing attachment (the caller widens it first via WidenGroup when the
// new member needs a deeper ranking).
func (c *RemoteCoordinator) Schedule(key string, query uint32, merge MergeFunc, cutK int) *RemoteQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := &RemoteQuery{merge: merge, cutK: cutK}
	g := c.byKey[key]
	if g == nil {
		g = &remoteGroup{key: key, query: query}
		c.groups = append(c.groups, g)
		if key != "" {
			c.byKey[key] = g
		}
	}
	q.group = g
	g.members = append(g.members, q)
	c.queries = append(c.queries, q)
	return q
}

// GroupSize reports how many scheduled queries share the key's group (0
// when no group exists — private "" groups are never counted).
func (c *RemoteCoordinator) GroupSize(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.byKey[key]; g != nil {
		return len(g.members)
	}
	return 0
}

// WidenGroup repoints the key's group at a newly attached wire query — the
// remote analogue of Scheduler.WidenGroup, used when a joining member's K
// exceeds the group's current ranking depth. The old attachment stays
// registered on the shards but is never acquired again.
func (c *RemoteCoordinator) WidenGroup(key string, query uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.byKey[key]
	if g == nil {
		return fmt.Errorf("engine: no remote acquisition group for key %q", key)
	}
	g.query = query
	return nil
}

// Step returns the query's next epoch outcome, running one shared lock-step
// epoch for every scheduled query when this one's buffer is empty. Epoch
// errors (a shard loss) surface in Outcome.Err without stalling the clock.
func (c *RemoteCoordinator) Step(q *RemoteQuery) (Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q.removed {
		return Outcome{}, fmt.Errorf("engine: query was removed from the remote scheduler")
	}
	if len(q.pending) == 0 {
		c.runEpochLocked()
	}
	out := q.pending[0]
	q.pending = q.pending[1:]
	return out, nil
}

// Remove detaches a scheduled query; its group dissolves when the last
// member leaves. The wire attachment is the caller's to release.
func (c *RemoteCoordinator) Remove(q *RemoteQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q.removed {
		return
	}
	q.removed = true
	for i, m := range c.queries {
		if m == q {
			c.queries = append(c.queries[:i], c.queries[i+1:]...)
			break
		}
	}
	g := q.group
	for i, m := range g.members {
		if m == q {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	if len(g.members) == 0 {
		for i, og := range c.groups {
			if og == g {
				c.groups = append(c.groups[:i], c.groups[i+1:]...)
				break
			}
		}
		if g.key != "" {
			delete(c.byKey, g.key)
		}
	}
}

// runEpochLocked advances the lock-step tier one epoch: ONE round trip per
// shard carries the sense and every group's acquisition (in group order,
// the scheduler's order on the shard state machine), then per-member merge
// and cut at the coordinator. A failed round poisons the whole epoch
// (every query buffers the error); a group's failure inside a round
// poisons only that group's members.
func (c *RemoteCoordinator) runEpochLocked() {
	e := c.epoch
	c.epoch++
	n := len(c.deps)
	qids := make([]uint32, len(c.groups))
	for gi, g := range c.groups {
		qids[gi] = g.query
	}

	senses := make([]map[model.NodeID]model.Reading, n)
	rounds := make([][]RemoteGroupResult, n)
	errs := make([]error, n)
	c.fanOut(func(i int) {
		senses[i], rounds[i], errs[i] = c.deps[i].shard.EpochRound(e, qids)
		if errs[i] == nil && len(rounds[i]) != len(qids) {
			errs[i] = fmt.Errorf("epoch round returned %d groups, want %d", len(rounds[i]), len(qids))
		}
	})
	if err := c.firstErr(errs); err != nil {
		for _, q := range c.queries {
			q.pending = append(q.pending, Outcome{Epoch: e, Err: err})
		}
		return
	}

	acqs := make([]RemoteAcquisition, n)
	groupErrs := make([]error, n)
	for gi, g := range c.groups {
		for i := range rounds {
			acqs[i], groupErrs[i] = rounds[i][gi].Acq, rounds[i][gi].Err
		}
		err := c.firstErr(groupErrs)
		// Union the readings the group actually ran on: the shared sensing,
		// or the shards' derived readings when the query overrides them.
		per := senses
		if err == nil {
			for i := range acqs {
				if acqs[i].Readings != nil {
					per = make([]map[model.NodeID]model.Reading, n)
					for j := range acqs {
						per[j] = acqs[j].Readings
					}
					break
				}
			}
		}
		readings := MergeReadings(per)
		perShard := make([][]model.Answer, n)
		for i := range acqs {
			perShard[i] = acqs[i].Answers
		}
		for _, q := range g.members {
			out := Outcome{Epoch: e, Readings: readings}
			switch {
			case err != nil:
				out.Err = err
			case q.merge == nil:
				if n != 1 {
					out.Err = fmt.Errorf("engine: %d shards need a merge function", n)
				} else {
					out.Answers = perShard[0]
				}
			default:
				out.Answers, out.Err = q.merge(perShard)
			}
			if q.cutK > 0 && out.Err == nil && len(out.Answers) > q.cutK {
				out.Answers = append([]model.Answer(nil), out.Answers[:q.cutK]...)
			}
			q.pending = append(q.pending, out)
		}
	}
}

// Shards returns the number of shard deployments.
func (c *RemoteCoordinator) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deps)
}

// Deployments returns the shard deployments, in shard order.
func (c *RemoteCoordinator) Deployments() []*RemoteDeployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*RemoteDeployment(nil), c.deps...)
}

// Install replaces the coordinator's shard deployments — the final step of
// a live re-sharding migration. Taking the epoch lock IS the drain: no
// epoch round, historic round or shard sweep can be in flight while the
// swap happens, and the next Step fans out to the new shards. The epoch
// clock and every scheduled group carry over untouched — the caller
// re-attaches each group's rqid on the new shards before installing, so
// coordinator-side group state needs no translation.
func (c *RemoteCoordinator) Install(deps []*RemoteDeployment) error {
	if len(deps) == 0 {
		return fmt.Errorf("engine: remote coordinator needs at least one deployment")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deps = deps
	return nil
}

// GroupQueries returns the scheduled acquisition groups' attached rqids in
// group order — what a migration must re-attach on the target shards
// before Install.
func (c *RemoteCoordinator) GroupQueries() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint32, len(c.groups))
	for i, g := range c.groups {
		out[i] = g.query
	}
	return out
}

// EpochNow returns the next epoch the lock-step tier will run — migration
// bookkeeping reads it before and after to count the epochs that elapsed
// while the move was in flight.
func (c *RemoteCoordinator) EpochNow() model.Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// RunShards invokes fn once per shard deployment concurrently (each shard
// is its own process; socket round trips overlap) and returns the first
// error in shard order, tagged with the shard's name — the remote
// analogue of Coordinator.RunShards, serialized against epoch rounds so
// one-shot historic executions cannot interleave an epoch on the shard
// state machines.
func (c *RemoteCoordinator) RunShards(fn func(i int, d *RemoteDeployment) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	errs := make([]error, len(c.deps))
	c.fanOut(func(i int) {
		errs[i] = fn(i, c.deps[i])
	})
	return c.firstErr(errs)
}

// Serialized runs fn while holding the coordinator's epoch lock: one-shot
// multi-call protocols (the federated historic threshold round, which
// fans its own per-shard calls out) run atomically with respect to epoch
// rounds on the shard state machines.
func (c *RemoteCoordinator) Serialized(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn()
}

// fanOut runs fn(i) for every shard index concurrently and joins.
func (c *RemoteCoordinator) fanOut(fn func(i int)) {
	if len(c.deps) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range c.deps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// firstErr returns the first shard error in shard order, tagged.
func (c *RemoteCoordinator) firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: shard %s: %w", c.deps[i].name, err)
		}
	}
	return nil
}
