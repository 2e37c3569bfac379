package storage

// ShardState is the serialized form of a shard's durable tier — what
// wire.MsgSnapshot streams out and wire.MsgRestore streams in: the epoch
// cursor, and per roster node its readings in the store's last epochs
// (epochs strictly ascending, values in the fixed64 quantized form epoch
// records use) plus the node's energy-ledger total in bit-exact float64.
// The encoding is canonical — nodes strictly ascending, epochs strictly
// ascending within a node, one byte form per state — so a restored shard
// re-snapshots to the identical bytes, which is how the migration tests
// pin "the history actually moved".

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"kspot/internal/model"
)

// NodeState is one node's slice of a shard snapshot.
type NodeState struct {
	Node     model.NodeID
	EnergyUJ float64
	Epochs   []model.Epoch
	Values   []int64 // fixed64 centi-units, index-aligned with Epochs
}

// ShardState is a whole shard's durable tier.
type ShardState struct {
	Epoch    model.Epoch
	HasEpoch bool
	Nodes    []NodeState
}

// shardStateMagic guards against feeding a restore stream something that
// was never a snapshot.
const shardStateMagic = "KSST"

// AppendShardState appends the canonical encoding of st to dst.
func AppendShardState(dst []byte, st ShardState) []byte {
	dst = append(dst, shardStateMagic...)
	if st.HasEpoch {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Epoch))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Nodes)))
	for _, ns := range st.Nodes {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(ns.Node))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ns.EnergyUJ))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ns.Epochs)))
		for i := range ns.Epochs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(ns.Epochs[i]))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(ns.Values[i]))
		}
	}
	return dst
}

// DecodeShardState decodes a canonical shard state, rejecting trailing
// bytes, non-ascending nodes or epochs, a cleared cursor with a non-zero
// epoch, and NaN-smuggled energy payloads that are not the canonical NaN.
func DecodeShardState(b []byte) (ShardState, error) {
	var st ShardState
	if len(b) < len(shardStateMagic)+9 || string(b[:4]) != shardStateMagic {
		return st, fmt.Errorf("storage: shard state header invalid")
	}
	b = b[4:]
	switch b[0] {
	case 0, 1:
		st.HasEpoch = b[0] == 1
	default:
		return st, fmt.Errorf("storage: shard state cursor flag %d", b[0])
	}
	st.Epoch = model.Epoch(binary.LittleEndian.Uint32(b[1:]))
	if !st.HasEpoch && st.Epoch != 0 {
		return st, fmt.Errorf("storage: shard state cursor %d without flag", st.Epoch)
	}
	n := int(binary.LittleEndian.Uint32(b[5:]))
	b = b[9:]
	for i := 0; i < n; i++ {
		if len(b) < 12 {
			return st, fmt.Errorf("storage: shard state truncated at node %d", i)
		}
		ns := NodeState{
			Node:     model.NodeID(binary.LittleEndian.Uint16(b)),
			EnergyUJ: math.Float64frombits(binary.LittleEndian.Uint64(b[2:])),
		}
		if i > 0 && ns.Node <= st.Nodes[i-1].Node {
			return st, fmt.Errorf("storage: shard state node %d not ascending", ns.Node)
		}
		cnt := int(binary.LittleEndian.Uint16(b[10:]))
		b = b[12:]
		if len(b) < cnt*12 {
			return st, fmt.Errorf("storage: shard state node %d truncated", ns.Node)
		}
		for j := 0; j < cnt; j++ {
			e := model.Epoch(binary.LittleEndian.Uint32(b[j*12:]))
			if j > 0 && e <= ns.Epochs[j-1] {
				return st, fmt.Errorf("storage: shard state node %d epoch %d not ascending", ns.Node, e)
			}
			ns.Epochs = append(ns.Epochs, e)
			ns.Values = append(ns.Values, int64(binary.LittleEndian.Uint64(b[j*12+4:])))
		}
		b = b[cnt*12:]
		st.Nodes = append(st.Nodes, ns)
	}
	if len(b) != 0 {
		return st, fmt.Errorf("storage: shard state has %d trailing bytes", len(b))
	}
	return st, nil
}

// FilterNodes returns the subset of st covering only the given nodes —
// how a migration splits one source shard's snapshot across several
// target shards. The cursor carries over unchanged.
func (st ShardState) FilterNodes(keep map[model.NodeID]bool) ShardState {
	out := ShardState{Epoch: st.Epoch, HasEpoch: st.HasEpoch}
	for _, ns := range st.Nodes {
		if keep[ns.Node] {
			out.Nodes = append(out.Nodes, ns)
		}
	}
	return out
}

// MergeShardStates unions the kept nodes of several source shard states
// into one canonical target state — the re-sharding migration's split-and-
// merge step. Nodes come out ascending (sources partition the node space,
// so no node appears twice); the cursor is the max of the contributing
// cursors (sources snapshot at slightly different epochs while the old
// deployment keeps running). A source contributing no kept nodes
// contributes nothing, not even its cursor.
func MergeShardStates(states []ShardState, keep map[model.NodeID]bool) ShardState {
	var out ShardState
	for _, st := range states {
		part := st.FilterNodes(keep)
		out.Nodes = append(out.Nodes, part.Nodes...)
		if len(part.Nodes) > 0 && part.HasEpoch && (!out.HasEpoch || part.Epoch > out.Epoch) {
			out.Epoch, out.HasEpoch = part.Epoch, true
		}
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	return out
}
