package faults

import (
	"sync"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/topo"
)

// Injector is the churn decorator: a Transport that forwards every
// primitive to the wrapped substrate, firing scheduled ChurnEvents as the
// epoch stream passes them. It observes epochs on the transmitting
// primitives, so an event at epoch e takes effect before e's transmissions
// but after e's sensing (both substrates sense before they transmit, which
// keeps them equivalent).
//
// All methods are safe for concurrent use when the wrapped transport is.
type Injector struct {
	inner engine.Transport

	mu     sync.Mutex
	events []ChurnEvent // sorted by epoch
	next   int          // first unapplied event
}

var (
	_ engine.Transport = (*Injector)(nil)
	_ engine.Unwrapper = (*Injector)(nil)
)

// Unwrap returns the wrapped transport (engine.Unwrapper).
func (in *Injector) Unwrap() engine.Transport { return in.inner }

// Advance fires every churn event scheduled at or before epoch e. The
// transmitting primitives call it automatically; tests and drivers may call
// it directly to take explicit control of churn timing. Idempotent and
// monotone: an event fires exactly once.
func (in *Injector) Advance(e model.Epoch) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.next < len(in.events) && in.events[in.next].Epoch <= e {
		ev := in.events[in.next]
		in.next++
		in.inner.(vitality).SetNodeDown(ev.Node, ev.Down)
	}
}

// --- engine.Transport, by delegation ---

// Topology implements Transport.
func (in *Injector) Topology() *topo.Placement { return in.inner.Topology() }

// Routing implements Transport.
func (in *Injector) Routing() *topo.Tree { return in.inner.Routing() }

// Alive implements Transport.
func (in *Injector) Alive(id model.NodeID) bool { return in.inner.Alive(id) }

// SendUp implements Transport.
func (in *Injector) SendUp(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	in.Advance(e)
	return in.inner.SendUp(from, kind, e, payload)
}

// SendDown implements Transport.
func (in *Injector) SendDown(from, to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	in.Advance(e)
	return in.inner.SendDown(from, to, kind, e, payload)
}

// BroadcastDown implements Transport.
func (in *Injector) BroadcastDown(kind radio.MsgKind, e model.Epoch, payloadFor func(child model.NodeID) []byte) map[model.NodeID]bool {
	in.Advance(e)
	return in.inner.BroadcastDown(kind, e, payloadFor)
}

// RouteToSink implements Transport.
func (in *Injector) RouteToSink(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	in.Advance(e)
	return in.inner.RouteToSink(from, kind, e, payload)
}

// RouteFromSink implements Transport.
func (in *Injector) RouteFromSink(to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	in.Advance(e)
	return in.inner.RouteFromSink(to, kind, e, payload)
}

// Sweep implements Transport.
func (in *Injector) Sweep(e model.Epoch, kind radio.MsgKind, readings map[model.NodeID]model.Reading, prune engine.PruneFunc) *model.View {
	in.Advance(e)
	return in.inner.Sweep(e, kind, readings, prune)
}

// AliveSensors implements Transport.
func (in *Injector) AliveSensors() []model.NodeID { return in.inner.AliveSensors() }

// ChargeSense implements Transport.
func (in *Injector) ChargeSense(readings map[model.NodeID]model.Reading) {
	in.inner.ChargeSense(readings)
}

// ChargeIdleEpoch implements Transport.
func (in *Injector) ChargeIdleEpoch() { in.inner.ChargeIdleEpoch() }

// Snap implements Transport.
func (in *Injector) Snap() sim.Snapshot { return in.inner.Snap() }

// Delta implements Transport.
func (in *Injector) Delta(s sim.Snapshot) sim.Snapshot { return in.inner.Delta(s) }

// Reset implements Transport.
func (in *Injector) Reset() { in.inner.Reset() }

// Stack assembles one shard's transport the one way every host does —
// kspot.Open's deterministic and live substrates and a wire shard server
// alike: the substrate (a *sim.Network, or the *engine.Live over it),
// behind the churn injector when a fault environment is armed (cfg
// non-nil; see Wrap), tapped outermost by each recorder in turn. The taps
// sit above the injector so a sense commit hands them exactly the
// committed, post-fault readings, and the substrate below stays one Wrap
// can arm.
func Stack(substrate engine.Transport, cfg *Config, recs ...engine.ReadingsRecorder) (engine.Transport, error) {
	tp := substrate
	if cfg != nil {
		inj, err := Wrap(substrate, *cfg)
		if err != nil {
			return nil, err
		}
		tp = inj
	}
	for _, rec := range recs {
		tp = engine.Recorded{Transport: tp, Rec: rec}
	}
	return tp, nil
}
