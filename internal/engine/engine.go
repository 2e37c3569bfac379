// Package engine is the transport-agnostic substrate layer between the
// top-k operators and the network they run on. The KSpot protocol is
// defined once — γ-descriptor pruning, bound tightening, recovery rounds
// all live in the operator packages under internal/topk — and the engine
// decides *where* it executes. There is one substrate, internal/sim's
// network, which satisfies Transport natively and is safe for concurrent
// use: it carries its own lock, and its Parallel bound is the only
// concurrency setting. At a bound of one a deployment runs the sequential
// reference walk on one goroutine; above one its acquisition groups sweep
// and flood the network at once, each sweep level-synchronous with its
// per-node work outside the lock — and a single query's answers and
// counters are the same at every bound (engine's equivalence test pins
// this, under -race).
//
// The sense half of the contract has no per-node method. What an epoch does
// to every node — read its aliveness, charge its idle baseline, charge its
// sensing — is asked of the transport for the whole roster at once, so the
// network's lock is taken a constant number of times per epoch whatever
// the node count, and the state behind it is indexed by node id rather
// than hashed (DESIGN.md, node-indexed state).
//
// Above the transports sits the one epoch engine. A shard — an in-process
// Deployment (transport + trace source + attached operators) or a process
// behind a socket (internal/wire's Client) — answers a single call,
// RemoteShard.EpochRound(e, groups): sense the epoch once, run every
// listed acquisition group, return the committed readings and one result
// per group. The Scheduler is the only driver of that contract: it serves
// several posted cursors from one deployment of N shards in epoch
// lock-step — one round per shard per epoch, then one merge and TOP-K cut
// per member query — and owns buffering, cancellation, removal and close
// for every kind of shard alike.
package engine

import (
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

// PruneFunc is the per-node hook of an acquisition sweep: it receives the
// transmitting node, its full local view V_i and an empty view out, and
// returns the view to transmit V'_i — v unchanged, out filled with the
// subset to send, or nil for "send nothing". A PruneFunc may be invoked
// concurrently for distinct nodes of a tree level (at a sweep worker bound
// above one), so it must not mutate operator state, and it may run under
// the transport's lock (the sequential walk), so it must not call back into
// the transport.
//
// Ownership: v and out belong to the transport — out is the node's own
// view in the sweep's frame, emptied before each call — and a PruneFunc
// must not retain either beyond the call.
type PruneFunc = func(node model.NodeID, v, out *model.View) *model.View

// Transport is the communication contract the operators program against:
// the primitives they previously used directly on *sim.Network (one-hop
// sends, the beacon flood, multihop relays, the epoch sweep), the
// per-message accounting every transmission feeds, and the batch-shaped
// sense half an epoch opens with (AliveSensors, ChargeIdleEpoch,
// ChargeSense).
//
// *sim.Network satisfies Transport natively, safe for concurrent use.
type Transport interface {
	// Topology returns the node placement (positions, groups, names).
	Topology() *topo.Placement
	// Routing returns the sink-rooted routing tree every message follows.
	Routing() *topo.Tree
	// Alive reports whether a node still has energy.
	Alive(id model.NodeID) bool

	// SendUp transmits a payload one hop from a node to its tree parent.
	SendUp(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool
	// SendDown transmits a payload one hop from a parent to a child.
	SendDown(from, to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool
	// BroadcastDown floods a per-child payload from the sink through the
	// tree (beacons, query installation), returning the nodes reached.
	// payloadFor must not call back into the transport: it runs under the
	// transport's lock.
	BroadcastDown(kind radio.MsgKind, e model.Epoch, payloadFor func(child model.NodeID) []byte) map[model.NodeID]bool
	// RouteToSink relays a payload hop by hop to the sink without merging
	// (the flat pattern of TPUT and the centralized baseline).
	RouteToSink(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool
	// RouteFromSink relays a payload hop by hop from the sink to one node
	// (FILA-style filter updates and probes).
	RouteFromSink(to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool
	// Sweep runs one TAG-style leaf-to-root acquisition: every node merges
	// its own reading with its children's views, applies prune (handing it
	// an empty view the node owns in the sweep, see PruneFunc), and ships
	// the result one hop up; empty views suppress the packet entirely. The
	// sink's merged view is returned; it belongs to the caller.
	Sweep(e model.Epoch, kind radio.MsgKind, readings map[model.NodeID]model.Reading, prune PruneFunc) *model.View

	// AliveSensors returns the sensors alive now, in ascending id: the nodes
	// an epoch samples. The slice is shared and read-only.
	AliveSensors() []model.NodeID
	// ChargeSense charges one sensing operation to every node of readings
	// that is alive and deletes the others from it.
	ChargeSense(readings map[model.NodeID]model.Reading)
	// ChargeIdleEpoch charges every live sensor the per-epoch idle baseline.
	ChargeIdleEpoch()
	// Snap captures the traffic/energy totals; Delta diffs against an
	// earlier snapshot; Reset clears accounting (budgets are preserved).
	Snap() sim.Snapshot
	Delta(s sim.Snapshot) sim.Snapshot
	Reset()
}

// ReadingsRecorder is a tap on the sense commit: a shard's durable tier
// (storage.Store), stacked outermost on the transport by Recorded. The
// commit feeds it the raw sensed values, exactly once per epoch — derived
// readings (DeriveReadings) are never recorded.
type ReadingsRecorder interface {
	RecordReadings(e model.Epoch, readings map[model.NodeID]model.Reading)
}

// Unwrapper is implemented by Transport decorators (the recorder taps);
// Unwrap returns the wrapped transport. Baseof follows the chain.
type Unwrapper interface {
	Unwrap() Transport
}

// Recorded decorates a transport with an extra ReadingsRecorder — how a
// shard's durable tier (storage.Store) taps the sense commit without the
// substrate knowing it exists (shard.New stacks it). Taps nest: an
// inner Recorded's recorder runs first.
type Recorded struct {
	Transport
	Rec ReadingsRecorder
}

// RecordReadings implements ReadingsRecorder by fan-out: inner first.
func (r Recorded) RecordReadings(e model.Epoch, readings map[model.NodeID]model.Reading) {
	if inner, ok := r.Transport.(ReadingsRecorder); ok {
		inner.RecordReadings(e, readings)
	}
	r.Rec.RecordReadings(e, readings)
}

// Unwrap implements Unwrapper.
func (r Recorded) Unwrap() Transport { return r.Transport }

// Baseof strips decorators off a transport, returning the innermost
// substrate.
func Baseof(t Transport) Transport {
	for {
		u, ok := t.(Unwrapper)
		if !ok {
			return t
		}
		t = u.Unwrap()
	}
}

// SenseEpoch samples every live sensor once and charges the sensing cost,
// returning the epoch's readings keyed by node. The returned map is shared
// read-only state: operators and per-node workers must not mutate it.
func SenseEpoch(t Transport, src trace.Source, e model.Epoch) map[model.NodeID]model.Reading {
	readings := sampleReadings(t, src, e)
	t.ChargeSense(readings)
	if r, ok := t.(ReadingsRecorder); ok {
		r.RecordReadings(e, readings)
	}
	return readings
}

// PresampleEpoch samples an epoch's readings without charging anything:
// the pure half of SenseEpoch. It only reads transport state (topology,
// aliveness) and the trace source (a pure function of node and epoch), so
// a deployment may run it on a background goroutine while the previous
// epoch's merge stage is still in flight: nothing changes a node's
// aliveness between epochs but the network's own primitives, and churn
// fires only on an epoch's first transmission. Pair with CommitSenseEpoch.
func PresampleEpoch(t Transport, src trace.Source, e model.Epoch) map[model.NodeID]model.Reading {
	return sampleReadings(t, src, e)
}

// CommitSenseEpoch applies the deferred accounting of a presampled epoch:
// the per-epoch idle baseline, then the sensing charge and the history
// recording. Nodes whose idle charge exhausted their budget are dropped
// from readings (by ChargeSense, as it charges the rest) — the synchronous
// order idle-charges before sampling, so such nodes never appear there;
// death is monotone between
// epochs (churn revivals fire on the epoch's first transmission, after
// sensing), which makes PresampleEpoch + CommitSenseEpoch byte-identical
// to SenseEpoch with a preceding ChargeIdleEpoch.
func CommitSenseEpoch(t Transport, e model.Epoch, readings map[model.NodeID]model.Reading) {
	t.ChargeIdleEpoch()
	t.ChargeSense(readings)
	if r, ok := t.(ReadingsRecorder); ok {
		r.RecordReadings(e, readings)
	}
}

// DeriveReadings rebuilds an epoch's per-node readings from a query-local
// source over an already-sensed node set, without charging sensing. The
// sensed map pins WHICH nodes participate: aliveness was decided once, at
// the epoch's sensing point, so every acquisition of the epoch — however
// many share it, in whatever order they run — derives from the same node
// set. Sampling the transport again at acquire time would instead observe
// churn flips fired by an earlier acquisition's transmissions, making a
// query's traffic depend on which other queries share its epoch.
func DeriveReadings(sensed map[model.NodeID]model.Reading, src trace.Source, e model.Epoch) map[model.NodeID]model.Reading {
	out := make(map[model.NodeID]model.Reading, len(sensed))
	for id, r := range sensed {
		out[id] = model.Reading{
			Node:  id,
			Group: r.Group,
			Epoch: e,
			Value: model.Quantize(src.Sample(id, e)),
		}
	}
	return out
}

// sampleReadings builds an epoch's readings without charging sensing —
// used by the Scheduler for queries that derive their per-node values from
// an already-sensed attribute (e.g. node-local window aggregation), so the
// shared acquisition is charged exactly once per epoch.
func sampleReadings(t Transport, src trace.Source, e model.Epoch) map[model.NodeID]model.Reading {
	alive := t.AliveSensors()
	readings := make(map[model.NodeID]model.Reading, len(alive))
	groups := t.Topology().Groups
	for _, id := range alive {
		readings[id] = model.Reading{
			Node:  id,
			Group: groups[id],
			Epoch: e,
			Value: model.Quantize(src.Sample(id, e)),
		}
	}
	return readings
}
