package engine

// The shard contract. Whatever a shard is — an in-process Deployment, or
// another process behind a socket (internal/wire's Client) — the Scheduler
// speaks to it through RemoteShard: one EpochRound call per shard per
// epoch. Per-node operations never cross it: a shard's operators, routing
// tree and energy ledger live on the shard's side; only shard-level
// results (readings, ranked answers) do, which is exactly the backhaul the
// fed layer's Stats account.

import "kspot/internal/model"

// RemoteAcquisition is one shard's epoch result for one query. Readings
// is nil for queries running on the epoch's shared sensing; for queries
// with derived per-node inputs (GROUP BY ... WITH HISTORY) it carries the
// derived readings the shard ran on, so the scheduler's oracle union sees
// the inputs the operator saw.
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

// RemoteShard is the scheduler's surface onto one shard: the shard-level
// half of the Transport contract (sensing and epoch acquisition), with
// per-node operations confined to the far side.
type RemoteShard interface {
	// EpochRound idle-charges and senses the shard once for the epoch, then
	// runs one epoch of every listed attached query, in order, returning
	// the post-commit readings and one result per query. A transport-level
	// failure poisons the whole round; a single query's failure is carried
	// in its result.
	EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []RemoteGroupResult, error)
}

// RemoteDeployment pairs a shard with its display name — the unit the
// Scheduler fans out to.
type RemoteDeployment struct {
	name  string
	shard RemoteShard
}

// NewRemoteDeployment binds a shard under a display name.
func NewRemoteDeployment(name string, shard RemoteShard) *RemoteDeployment {
	return &RemoteDeployment{name: name, shard: shard}
}

// Name returns the deployment's display name.
func (d *RemoteDeployment) Name() string { return d.name }

// Shard returns the shard handle.
func (d *RemoteDeployment) Shard() RemoteShard { return d.shard }

// Everything below is named by frozen benchmark/; delete with the next
// benchmark PR. It forwards to the Scheduler and holds nothing of its own;
// no code in this repository outside benchmark/ may use it.

type (
	RemoteRoundShard  = RemoteShard
	RemoteQuery       = ScheduledQuery
	RemoteCoordinator struct{ *Scheduler }
)

func NewRemoteCoordinator(deps ...*RemoteDeployment) *RemoteCoordinator {
	return &RemoteCoordinator{NewShardScheduler(deps...)}
}

func (c *RemoteCoordinator) Schedule(key string, query uint32, merge MergeFunc, cutK int) *RemoteQuery {
	return c.Scheduler.Schedule(QuerySpec{Key: key, Query: query, Merge: merge, CutK: cutK})
}

func (c *RemoteCoordinator) WidenGroup(key string, query uint32) error {
	return c.Scheduler.RepointGroup(key, query)
}
