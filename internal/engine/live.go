package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/topo"
)

// LiveOptions configures the concurrent substrate.
type LiveOptions struct {
	// Window is accepted and ignored: Live keeps no history (historic and
	// WITH HISTORY queries materialize from the trace source; the durable
	// tier records through its tap). Named by frozen benchmark/; delete
	// with the next benchmark PR.
	Window int
}

// Live is the concurrent substrate: the shared *sim.Network state machine
// (link layer, loss, framing, energy ledger, budgets) behind a mutex, with
// re-entrant sweeps — what cmd/kspotd and the examples deploy, where the
// deterministic substrate serves one caller at a time. It implements Transport, so every snapshot operator runs on it
// unchanged.
//
// Nothing of the protocol is reimplemented. Sends, floods and relays are
// the network's own walks under the lock. A sweep is the network's
// level-synchronous SweepOn on a frame of its own: the per-node work of a
// level (merge, prune, encode) runs outside the lock on up to
// base.Parallel() workers, and the level's transmissions commit under the
// lock in post-order position. A single sweep is therefore byte-identical
// to the deterministic substrate in every counter, loss draws and the
// energy ledger included; concurrent sweeps interleave level by level.
//
// Concurrency contract: all Transport methods are safe for concurrent use
// once Start has been called, and any number of Sweeps and BroadcastDowns
// may be in flight at once (the multi-query scheduler relies on this).
// PruneFuncs run concurrently for distinct nodes of a level; payloadFor
// callbacks run under the lock and must not call back into the transport.
type Live struct {
	base *sim.Network
	mu   sync.Mutex // guards base (link rng, counters, ledger, budgets, churn schedule, tree index) and frames

	// frames is the free list of sweep frames: a sweep takes one (or makes
	// one) and returns it, so the list grows to the peak number of sweeps
	// in flight and steady-state sweeps allocate no per-node scratch.
	frames []*sim.SweepFrame

	lifeMu  sync.Mutex // serializes Start and Stop
	started atomic.Bool
	unhook  func() bool // detaches Stop from Start's context
}

// NewLive builds the concurrent substrate over an existing network state
// (topology, link layer, accounting). Call Start before any traffic.
func NewLive(net *sim.Network, _ LiveOptions) *Live {
	return &Live{base: net}
}

// Start opens the deployment for traffic until Stop is called or ctx is
// cancelled. Live owns no goroutines: sweeps run on their callers' and on
// workers that live within one Sweep call.
func (l *Live) Start(ctx context.Context) {
	l.lifeMu.Lock()
	defer l.lifeMu.Unlock()
	if l.started.Load() {
		return
	}
	l.started.Store(true)
	l.unhook = context.AfterFunc(ctx, l.Stop)
}

// Stop closes the deployment for new sweeps and floods. Those already in
// flight run to completion on their callers' goroutines.
func (l *Live) Stop() {
	l.lifeMu.Lock()
	defer l.lifeMu.Unlock()
	if !l.started.Load() {
		return
	}
	l.started.Store(false)
	l.unhook()
}

// ready panics when the deployment has not been started.
func (l *Live) ready() {
	if !l.started.Load() {
		panic("engine: Live transport used before Start (or after Stop)")
	}
}

// --- Transport implementation ---

var _ Transport = (*Live)(nil)

// Topology implements Transport.
func (l *Live) Topology() *topo.Placement { return l.base.Placement }

// Routing implements Transport.
func (l *Live) Routing() *topo.Tree { return l.base.Tree }

// Alive implements Transport.
func (l *Live) Alive(id model.NodeID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Alive(id)
}

// SendUp implements Transport (single-hop accounting; the view data path
// of an epoch goes through Sweep).
func (l *Live) SendUp(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.SendUp(from, kind, e, payload)
}

// SendDown implements Transport.
func (l *Live) SendDown(from, to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.SendDown(from, to, kind, e, payload)
}

// BroadcastDown implements Transport: the beacon flood, re-broadcast per
// child link on the shared link model. Returns the nodes reached.
func (l *Live) BroadcastDown(kind radio.MsgKind, e model.Epoch, payloadFor func(child model.NodeID) []byte) map[model.NodeID]bool {
	l.ready()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.BroadcastDown(kind, e, payloadFor)
}

// RouteToSink implements Transport: multihop relay without merging. The
// payload is opaque and the result is consumed at the sink, so the relay
// is accounted hop by hop on the shared link model.
func (l *Live) RouteToSink(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.RouteToSink(from, kind, e, payload)
}

// RouteFromSink implements Transport.
func (l *Live) RouteFromSink(to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.RouteFromSink(to, kind, e, payload)
}

// Sweep implements Transport: the epoch's up-sweep, level-synchronous on a
// frame of its own (see Live). The returned view is a copy made before the
// frame goes back on the free list, so it belongs to the caller and stays
// valid whatever other sweeps run.
func (l *Live) Sweep(e model.Epoch, kind radio.MsgKind, readings map[model.NodeID]model.Reading, prune PruneFunc) *model.View {
	l.ready()
	l.mu.Lock()
	var f *sim.SweepFrame
	if n := len(l.frames); n > 0 {
		f, l.frames = l.frames[n-1], l.frames[:n-1]
	} else {
		f = new(sim.SweepFrame)
	}
	l.mu.Unlock()
	// A panicking prune unwinds past the hand-back: its frame is dropped.
	v := l.base.SweepOn(f, &l.mu, e, kind, readings, prune).Clone()
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
	return v
}

// SetFault installs a deterministic link-layer fault model on the shared
// link. Installation must precede traffic (the fault model itself is
// concurrency-safe; the swap is not synchronized against in-flight sends).
func (l *Live) SetFault(m radio.FaultModel) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base.SetFault(m)
}

// SetChurn arms a churn schedule on the shared network under the lock. The
// network fires each event on entry to its epoch's first transmitting
// primitive (see sim.Network.SetChurn); a sweep fires it under the commit
// lock. Arming must precede traffic.
func (l *Live) SetChurn(events []sim.ChurnEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base.SetChurn(events)
}

// AliveSensors implements Transport: the whole roster's aliveness under
// one acquisition of the lock.
func (l *Live) AliveSensors() []model.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.AliveSensors()
}

// ChargeSense implements Transport.
func (l *Live) ChargeSense(readings map[model.NodeID]model.Reading) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base.ChargeSense(readings)
}

// ChargeIdleEpoch implements Transport.
func (l *Live) ChargeIdleEpoch() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base.ChargeIdleEpoch()
}

// Snap implements Transport.
func (l *Live) Snap() sim.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Snap()
}

// Delta implements Transport.
func (l *Live) Delta(s sim.Snapshot) sim.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Delta(s)
}

// Reset implements Transport.
func (l *Live) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base.Reset()
}
