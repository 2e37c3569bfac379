package kspot

// Live elastic re-sharding: migrate a running remote federation onto a new
// shard partition — grow 2→4 under load, shrink 4→2 — without stopping the
// posted queries. The move is exact, not approximate:
//
//   - while the migration is in flight, every epoch keeps running on the
//     OLD deployment, so answers never degrade (recall stays 1.0 — pin it
//     with stats.Score over the migration window if you want the number);
//   - the coordinator's group state (epoch clock, shared-acquisition
//     groups, per-cursor buffers) is never rebuilt — each group's wire
//     query is re-attached on the new shards under the SAME rqid, so the
//     lock-step scheduler fans out to the new deployment with zero translation;
//   - the durable historic tier moves with the nodes: each old shard's
//     snapshot image — its last epoch records as they are plus a node
//     record of the roster's energy-ledger totals — streams out
//     (wire.MsgSnapshot), is cut to each target roster
//     (storage.FilterImage), and every part restores onto its target in
//     turn (wire.MsgRestore), the store's overlay doing the merge,
//     bit-exact — including float energy partial sums;
//   - engine.Scheduler.Install is the drain: it takes the epoch
//     lock, so the swap cannot interleave an epoch round, and the
//     next Step after it lands on the new shards.
//
// The only migration artifact is a gap in the TARGET shards' durable
// records covering the epochs that elapsed between snapshot and install
// (reported as DowntimeEpochs) — those epochs ran, and answered, on the
// old deployment, whose own durable tier retains them.

import (
	"encoding/json"
	"fmt"

	"kspot/internal/model"
	"kspot/internal/storage"
)

// ReshardReport summarizes a completed live re-sharding migration.
type ReshardReport struct {
	// FromShards / ToShards are the shard counts before and after.
	FromShards int
	ToShards   int
	// DowntimeEpochs is how many lock-step epochs elapsed while the
	// migration was in flight. Queries kept answering through all of them
	// (on the old deployment); the number bounds the durable-record gap on
	// the target shards.
	DowntimeEpochs int
	// MovedBytes is the total snapshot image bytes streamed out of the
	// old shards.
	MovedBytes int
	// Queries is how many shared-acquisition wire attachments were
	// replayed onto every new shard.
	Queries int
}

// Reshard migrates this remote System onto a new shard partition running
// at addrs (index-aligned with newScenario's shard list, exactly like
// OpenFederated). newScenario must be the SAME flat scenario under a
// different shards block — same nodes, clusters, workload, seeds; only
// the partition (and the name) may differ — so the re-sharded deployment
// derives the identical trace and keeps answering byte-identically to the
// flat run. Both the current and the new partition need at least two
// shards (posted cursors' merge state assumes a federated deployment on
// both sides of the move).
//
// Posted cursors keep stepping throughout: epochs in flight during the
// migration run on the old shards, and the first epoch after it on the
// new ones, with no stop-the-world window. New Posts and Closes block for
// the duration. Old connections close once the swap is serialized against
// the epoch clock.
func (s *System) Reshard(newScenario *Scenario, addrs []string) (*ReshardReport, error) {
	if !s.Remote() {
		return nil, fmt.Errorf("kspot: Reshard needs a remote deployment (OpenFederated)")
	}
	shardScens, err := newScenario.ShardScenarios()
	if err != nil {
		return nil, err
	}
	if len(addrs) != len(shardScens) {
		return nil, fmt.Errorf("kspot: %d shard addresses for a %d-shard scenario", len(addrs), len(shardScens))
	}
	if len(shardScens) < 2 {
		return nil, fmt.Errorf("kspot: Reshard targets need at least 2 shards, got %d", len(shardScens))
	}
	if err := sameFlatScenario(s.scenario, newScenario); err != nil {
		return nil, err
	}

	sched := s.sched
	epochBefore := sched.Epoch()

	// Dial every new shard before touching anything — a target that is
	// down or skewed fails the whole move with the old deployment intact.
	clients, deps, err := dialShards(newScenario, shardScens, addrs, s.wireCfg)
	if err != nil {
		return nil, err
	}
	closeNew := func() {
		for _, cl := range clients {
			cl.Close()
		}
	}

	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	old := s.shards
	if len(old) < 2 {
		closeNew()
		return nil, fmt.Errorf("kspot: Reshard needs at least 2 current shards, got %d", len(old))
	}

	// Replay every shared-acquisition group's attachment on every new
	// shard under its existing rqid: the shard re-plans the SQL and
	// instantiates the identical operator, and the coordinator's group
	// state needs no translation when the swap lands.
	for _, st := range s.groups {
		if err := attachGroup(clients, st); err != nil {
			closeNew()
			return nil, fmt.Errorf("kspot: reshard re-attach query %d: %w", st.id, err)
		}
	}

	// Snapshot every old shard's durable tier. Epochs keep running on the
	// old deployment while these stream — a snapshot only reads the
	// store, it never touches the epoch state machine.
	moved := 0
	images := make([][]byte, len(old))
	for i, h := range old {
		img, err := h.Snapshot()
		if err != nil {
			closeNew()
			return nil, fmt.Errorf("kspot: snapshot shard %s: %w", s.scenario.ShardName(i), err)
		}
		images[i], moved = img, moved+len(img)
	}

	// Move the history: every target restores its part of every source.
	for ti, target := range shardScens {
		keep := make(map[model.NodeID]bool, len(target.Nodes))
		for _, n := range target.Nodes {
			keep[model.NodeID(n.ID)] = true
		}
		if err := restoreParts(images, keep, clients[ti].Restore); err != nil {
			closeNew()
			return nil, fmt.Errorf("kspot: restore shard %s: %w", newScenario.ShardName(ti), err)
		}
	}

	// The drain and the swap: Install takes the epoch lock, so no epoch
	// round or historic round straddles the cutover.
	if err := sched.Install(deps); err != nil {
		closeNew()
		return nil, err
	}
	s.shards = clients
	s.scenario = newScenario
	epochAfter := sched.Epoch()

	// Close the old connections serialized against the epoch clock: any
	// round already holding the lock finishes on them first.
	sched.Serialized(func() error {
		for _, cl := range old {
			cl.Close()
		}
		return nil
	})

	return &ReshardReport{
		FromShards:     len(old),
		ToShards:       len(clients),
		DowntimeEpochs: int(epochAfter - epochBefore),
		MovedBytes:     moved,
		Queries:        len(s.groups),
	}, nil
}

// restoreParts restores onto one target, in turn, each source image's part
// covering the target's nodes: Restore's overlay is the merge. Sources
// partition the nodes and the cursor never regresses, so the target ends
// holding every kept node's history at the newest contributing cursor. A
// source keeping none of the nodes is skipped: it contributes nothing, not
// even its cursor.
func restoreParts(images [][]byte, keep map[model.NodeID]bool, restore func(part []byte) error) error {
	for _, img := range images {
		part, kept, err := storage.FilterImage(img, keep)
		if err != nil {
			return err
		}
		if kept == 0 {
			continue
		}
		if err := restore(part); err != nil {
			return err
		}
	}
	return nil
}

// sameFlatScenario verifies two scenarios describe the identical flat
// deployment — everything but the name and the shards block must match,
// or the re-sharded federation would derive a different trace and break
// the byte-identity bar.
func sameFlatScenario(a, b *Scenario) error {
	ca, cb := *a, *b
	ca.Name, cb.Name = "", ""
	ca.Shards, cb.Shards = nil, nil
	ja, err := json.Marshal(&ca)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(&cb)
	if err != nil {
		return err
	}
	if string(ja) != string(jb) {
		return fmt.Errorf("kspot: re-shard scenario %q is not the same flat deployment as %q (only the shards block may differ)", b.Name, a.Name)
	}
	return nil
}
