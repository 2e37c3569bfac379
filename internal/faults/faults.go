// Package faults is the unreliable-world layer: it degrades a network with
// seeded link loss, message duplication and delay, and scheduled node
// churn — the conditions the paper's MICA2 deployments actually ran under,
// which sim.DefaultOptions' lossless world never exercises.
//
// Arm installs a whole Config on the network state machine in one call,
// each fault where it physically lives:
//
//   - Frame faults (loss, delay, duplication) go into the shared radio link
//     (radio.Config.Fault), so retransmission, framing and energy
//     accounting all apply unchanged. Loss models: Bernoulli per-frame,
//     distance-weighted, and Gilbert-Elliott bursts.
//   - Node churn (scheduled death and revival) goes into the network's
//     churn schedule (sim.Network.SetChurn), which fires each event on
//     entry to its epoch's first transmitting primitive and flips the node
//     through the same Alive pathway energy exhaustion uses.
//
// Determinism contract: every fault decision is a pure function of the
// fault seed and the message's identity (link, kind, epoch, fragment,
// attempt, payload) — never of transmission order. The sequential walk and
// concurrent acquisitions therefore replay the exact same fault pattern
// under the same seed, which is what the conformance suite's Parallel 1 vs
// 4 equivalence tests pin (see internal/topk/topktest).
package faults

import (
	"fmt"
	"math"
	"sync"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/topo"
)

// DistanceSpec weights per-frame loss by link length:
// p(d) = min(Max, PAtRef * (d/Ref)^Exp). Longer hops fade more, the
// classic log-distance picture collapsed to a power law.
type DistanceSpec struct {
	PAtRef float64 `json:"p_at_ref"`      // loss probability at distance Ref
	Ref    float64 `json:"ref"`           // reference distance, same units as the placement
	Exp    float64 `json:"exp,omitempty"` // path-loss exponent, default 2
	Max    float64 `json:"max,omitempty"` // probability ceiling, default 0.95
}

// BurstSpec is a Gilbert-Elliott channel: each link walks a two-state
// Markov chain (good/bad) advanced once per epoch, with a per-frame loss
// probability for each state. Bad states model the multi-epoch fades real
// deployments see.
type BurstSpec struct {
	PGoodBad float64 `json:"p_good_bad"`          // per-epoch good→bad transition
	PBadGood float64 `json:"p_bad_good"`          // per-epoch bad→good transition
	LossGood float64 `json:"loss_good,omitempty"` // per-frame loss in the good state
	LossBad  float64 `json:"loss_bad"`            // per-frame loss in the bad state
}

// ChurnEvent schedules one node's administrative death or revival (see
// sim.ChurnEvent: the network that fires it owns the type).
type ChurnEvent = sim.ChurnEvent

// Config declares a deployment's fault environment. The zero Config is a
// perfect world. At most one of Loss/Distance/Burst may be set.
type Config struct {
	// Seed drives every fault decision. Identical seeds replay identical
	// fault patterns at every Parallel bound.
	Seed int64 `json:"seed"`
	// Loss is a Bernoulli per-frame loss probability in [0,1).
	Loss float64 `json:"loss,omitempty"`
	// Distance, when non-nil, weights loss by link length.
	Distance *DistanceSpec `json:"distance,omitempty"`
	// Burst, when non-nil, runs Gilbert-Elliott loss bursts per link.
	Burst *BurstSpec `json:"burst,omitempty"`
	// Duplicate is the probability a delivered frame is spuriously
	// retransmitted (doubling its air and receive cost), in [0,1).
	Duplicate float64 `json:"duplicate,omitempty"`
	// Delay is the probability a frame arrives outside its receive window
	// (charged like a reception, retried like a loss), in [0,1).
	Delay float64 `json:"delay,omitempty"`
	// Churn schedules node deaths and revivals.
	Churn []ChurnEvent `json:"churn,omitempty"`
}

// Enabled reports whether the config injects any fault at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.Loss > 0 || c.Distance != nil || c.Burst != nil ||
		c.Duplicate > 0 || c.Delay > 0 || len(c.Churn) > 0
}

// Validate rejects malformed configurations.
func (c *Config) Validate() error {
	prob := func(name string, p float64) error {
		if p < 0 || p >= 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1)", name, p)
		}
		return nil
	}
	if err := prob("loss", c.Loss); err != nil {
		return err
	}
	if err := prob("duplicate", c.Duplicate); err != nil {
		return err
	}
	if err := prob("delay", c.Delay); err != nil {
		return err
	}
	models := 0
	if c.Loss > 0 {
		models++
	}
	if c.Distance != nil {
		models++
		if err := prob("distance p_at_ref", c.Distance.PAtRef); err != nil {
			return err
		}
		if c.Distance.Ref <= 0 {
			return fmt.Errorf("faults: distance ref must be positive, got %v", c.Distance.Ref)
		}
	}
	if c.Burst != nil {
		models++
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"burst p_good_bad", c.Burst.PGoodBad},
			{"burst p_bad_good", c.Burst.PBadGood},
			{"burst loss_good", c.Burst.LossGood},
			{"burst loss_bad", c.Burst.LossBad},
		} {
			if err := prob(p.name, p.v); err != nil {
				return err
			}
		}
	}
	if models > 1 {
		return fmt.Errorf("faults: at most one loss model (loss, distance, burst) may be set")
	}
	for _, ev := range c.Churn {
		if ev.Node == model.Sink {
			return fmt.Errorf("faults: the sink (node %d) cannot churn", model.Sink)
		}
	}
	return nil
}

// Arm installs the whole configured environment on the network — the frame
// model into its link layer, the churn schedule into its state machine —
// replacing whatever was armed before. Arm once, before any traffic flows.
func Arm(n *sim.Network, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n.SetFault(cfg.frameModel(n.Topology()))
	n.SetChurn(cfg.Churn)
	return nil
}

// frameModel assembles the composite radio.FaultModel, or nil when no
// frame fault is configured. The placement feeds the distance model.
func (c *Config) frameModel(p *topo.Placement) radio.FaultModel {
	if c.Loss <= 0 && c.Distance == nil && c.Burst == nil && c.Duplicate <= 0 && c.Delay <= 0 {
		return nil
	}
	m := &frameModel{seed: c.Seed, dup: c.Duplicate, delay: c.Delay}
	switch {
	case c.Loss > 0:
		m.lossAt = func(radio.Message) float64 { return c.Loss }
	case c.Distance != nil:
		m.lossAt = distanceLoss(*c.Distance, p)
	case c.Burst != nil:
		m.lossAt = burstLoss(*c.Burst, c.Seed)
	}
	return m
}

// frameModel implements radio.FaultModel: loss first (per the selected
// model), then delay, then duplication, each from an independent salted
// draw on the message identity. The payload is hashed on every Frame call:
// an earlier revision memoized the digest under a (header, length, backing
// pointer) key, but a multi-query epoch runs several sweeps over the same
// links with reused payload buffers, so a recycled buffer can carry
// different bytes under an identical key — a false hit that silently
// violates the determinism contract. The payloads are tens of bytes;
// rehashing per frame attempt is noise next to that hazard.
type frameModel struct {
	seed   int64
	lossAt func(msg radio.Message) float64 // nil = lossless
	dup    float64
	delay  float64
}

// base returns the per-message digest.
func (m *frameModel) base(msg radio.Message) uint64 {
	return msgDigest(m.seed, msg)
}

// Draw salts, one per fault dimension so the streams are independent.
const (
	saltLoss  = 0x6c6f7373 // "loss"
	saltDelay = 0x64656c61 // "dela"
	saltDup   = 0x64757000 // "dup"
	saltBurst = 0x62727374 // "brst"
)

// Frame implements radio.FaultModel. The message's identity (payload
// included) is hashed once per message; each frame attempt and each fault
// dimension draws its own salted variate from that digest.
func (m *frameModel) Frame(msg radio.Message, frag, attempt int) radio.FrameFate {
	h := frameDigest(m.base(msg), frag, attempt)
	if m.lossAt != nil {
		if p := m.lossAt(msg); p > 0 && unit(h, saltLoss) < p {
			return radio.FrameLost
		}
	}
	if m.delay > 0 && unit(h, saltDelay) < m.delay {
		return radio.FrameDelayed
	}
	if m.dup > 0 && unit(h, saltDup) < m.dup {
		return radio.FrameDuplicated
	}
	return radio.FrameOK
}

// distanceLoss binds a DistanceSpec to the deployment's geometry.
func distanceLoss(spec DistanceSpec, p *topo.Placement) func(radio.Message) float64 {
	if spec.Exp == 0 {
		spec.Exp = 2
	}
	if spec.Max == 0 {
		spec.Max = 0.95
	}
	return func(msg radio.Message) float64 {
		a, okA := p.Positions[msg.From]
		b, okB := p.Positions[msg.To]
		if !okA || !okB {
			return 0
		}
		loss := spec.PAtRef * math.Pow(a.Dist(b)/spec.Ref, spec.Exp)
		if loss > spec.Max {
			loss = spec.Max
		}
		return loss
	}
}

// burstLoss binds a BurstSpec: each undirected link walks its own
// Gilbert-Elliott chain, advanced once per observed epoch. The chain state
// at epoch e is a pure function of (seed, link, e) — it is computed by
// replaying the chain from epoch 0, memoized per link so the monotone
// epoch streams of real runs advance in O(1).
func burstLoss(spec BurstSpec, seed int64) func(radio.Message) float64 {
	type chain struct {
		epoch model.Epoch
		bad   bool
	}
	type linkKey struct{ lo, hi model.NodeID }
	var mu sync.Mutex
	chains := make(map[linkKey]*chain)
	return func(msg radio.Message) float64 {
		key := linkKey{msg.From, msg.To}
		if key.lo > key.hi {
			key.lo, key.hi = key.hi, key.lo
		}
		mu.Lock()
		c := chains[key]
		if c == nil || msg.Epoch < c.epoch {
			c = &chain{} // good at epoch 0; regression replays from scratch
			chains[key] = c
		}
		for c.epoch < msg.Epoch {
			p := spec.PGoodBad
			if c.bad {
				p = spec.PBadGood
			}
			if stepDraw(seed, key.lo, key.hi, c.epoch) < p {
				c.bad = !c.bad
			}
			c.epoch++
		}
		bad := c.bad
		mu.Unlock()
		if bad {
			return spec.LossBad
		}
		return spec.LossGood
	}
}
