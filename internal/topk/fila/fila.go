// Package fila implements filter-based top-k monitoring after FILA (Wu,
// Xu, Tang, Lee — ICDE 2006), the snapshot-monitoring competitor the KSpot
// paper cites alongside MINT. Where MINT suppresses tuples with
// γ-descriptor bounds recomputed every epoch, FILA installs a *filter
// window* [l_i, u_i) at every node and the node stays silent while its
// sensed value remains inside; the sink re-balances windows when reported
// violations move the ranking.
//
// This reconstruction targets the per-node top-k monitoring problem ("the
// K nodes with the highest value", every sensor its own group — FILA's own
// problem statement). Windows split the value space at the top-k boundary
// τ (the midpoint between the K-th and K+1-th cached values): members
// (rank ≤ K) hold [τ, +∞), everyone else (−∞, τ). A node transmits only
// on a *filter violation* — its fresh value crossing τ to the other side
// of its window — so quiet epochs cost nothing at all; violations
// aggregate up the tree like view updates.
//
// A violation that moves the boundary leaves silent nodes' cached values
// untrustworthy near the new τ; the sink then runs a *resolve sweep* — a
// threshold-pruned acquisition (every node with value above the tentative
// boundary reports), iterated like MINT's recovery round until no silent
// node's held window straddles τ. Window re-installations are unicast and
// hysteresis-gated by the pad; stale windows stay safe because resolve
// decisions use what each node actually holds.
//
// Contract: top-k *membership* is exact every epoch (violations plus the
// probe loop leave no silent node astride the boundary); member *scores*
// may be stale inside their windows — the accuracy/traffic trade that
// distinguishes the filter approach from MINT's exact γ bounds.
// Experiment E14 measures it.
package fila

import (
	"fmt"
	"math"
	"sort"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topk"
)

// window is a half-open filter interval [Lo, Hi).
type window struct {
	Lo, Hi model.Value
}

func (w window) contains(v model.Value) bool { return v >= w.Lo && v < w.Hi }

// strictlyInside reports whether v lies strictly between the bounds — the
// probe condition: only then is a silent node's side of v unknown.
func (w window) strictlyInside(v model.Value) bool { return v > w.Lo && v < w.Hi }

// Wire sizes: a window update carries two fixed-point bounds; probes carry
// a request id; replies a (group, value) answer.
const (
	windowWireSize = 8
	probeWireSize  = 4
	replyWireSize  = model.AnswerWireSize
)

// Config tunes the operator.
type Config struct {
	// PadFrac is the re-installation hysteresis as a fraction of the
	// declared value range: a node's window is re-sent only when its
	// boundary moved by more than the pad. Default 0.02.
	PadFrac float64
}

// Operator is the FILA monitoring operator. It requires every group to be
// a single node (per-node top-k); Attach rejects other groupings.
type Operator struct {
	cfg Config

	net    engine.Transport
	q      topk.SnapshotQuery
	node2  map[model.NodeID]model.GroupID
	group2 map[model.GroupID]model.NodeID

	installed bool
	cache     map[model.GroupID]model.Value
	held      map[model.GroupID]window // what each node actually holds

	// Probes counts probe round-trips per epoch (for the System Panel).
	Probes []int
}

// New returns a FILA operator with default configuration.
func New() *Operator { return NewWithConfig(Config{}) }

// NewWithConfig returns a FILA operator with explicit configuration.
func NewWithConfig(cfg Config) *Operator {
	if cfg.PadFrac <= 0 {
		cfg.PadFrac = 0.02
	}
	return &Operator{cfg: cfg}
}

// Name implements topk.SnapshotOperator.
func (o *Operator) Name() string { return "fila" }

// Attach implements topk.SnapshotOperator.
func (o *Operator) Attach(net engine.Transport, q topk.SnapshotQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for g, n := range net.Topology().GroupSize() {
		if n != 1 {
			return fmt.Errorf("fila: group %d has %d members; FILA monitors per-node top-k (singleton groups)", g, n)
		}
	}
	o.net, o.q = net, q
	o.node2 = make(map[model.NodeID]model.GroupID)
	o.group2 = make(map[model.GroupID]model.NodeID)
	for id, g := range net.Topology().Groups {
		if id == model.Sink {
			continue
		}
		o.node2[id] = g
		o.group2[g] = id
	}
	o.installed = false
	o.cache = make(map[model.GroupID]model.Value)
	o.held = make(map[model.GroupID]window)
	o.Probes = nil
	return nil
}

// Epoch implements topk.SnapshotOperator.
func (o *Operator) Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error) {
	if !o.installed {
		topk.InstallQuery(o.net, e)
		v := o.net.Sweep(e, radio.KindData, readings, nil)
		for _, g := range v.Groups() {
			p, _ := v.Get(g)
			o.cache[g] = model.Quantize(p.Eval(o.q.Agg))
		}
		o.installed = true
		o.reinstall(e)
		o.Probes = append(o.Probes, 0)
		return o.ranking(), nil
	}

	// Filter evaluation: a node transmits only when its fresh value
	// violates the window it holds.
	violations := map[model.NodeID]model.Reading{}
	for id, r := range readings {
		g := o.node2[id]
		w, ok := o.held[g]
		if !ok || !w.contains(model.Quantize(r.Value)) {
			violations[id] = r
		}
	}
	fresh := map[model.GroupID]bool{}
	if len(violations) > 0 {
		v := o.net.Sweep(e, radio.KindData, violations, nil)
		for _, g := range v.Groups() {
			p, _ := v.Get(g)
			o.cache[g] = model.Quantize(p.Eval(o.q.Agg))
			fresh[g] = true
		}
	}

	// Resolve sweeps: while the boundary sits strictly inside some silent
	// node's held window, its side of τ — and hence the membership — is
	// unknown. One threshold-pruned sweep fetches every fresh value at or
	// above the tentative boundary; like MINT's recovery round, at most a
	// couple of iterations are ever needed (the reporter set only grows).
	// A quiet epoch (no violations) cannot change membership: every node
	// is inside its held window, so the zones still hold. Reported
	// changes, though, leave silent caches near the new boundary
	// untrustworthy. The sink then resolves by *threshold descent*: a
	// pruned sweep in which every node at or above the descending bound
	// reports. Once at least K fresh values sit at or above the bound,
	// every silent node (provably below the bound) is out of the answer
	// and the membership is exact. Each sweep touches only the nodes near
	// the boundary, so a wobbling boundary costs a handful of reports,
	// not a TAG epoch; the full sweep remains as a last-resort fallback.
	probes := 0
	if tau, ok := o.boundary(); ok && len(violations) > 0 {
		unresolved := false
		for g, w := range o.held {
			if !fresh[g] && w.strictlyInside(tau) {
				unresolved = true
				break
			}
		}
		if unresolved {
			pad := o.pad()
			bound := tau - pad
			for iter := 0; iter < 6; iter++ {
				probes++
				b := bound
				v := o.net.Sweep(e, radio.KindCtrl, readings, func(_ model.NodeID, view *model.View) *model.View {
					out := model.AcquireView() // transport-owned, recycled after transmit
					view.ForEach(func(p model.Partial) {
						if !fresh[p.Group] && model.Quantize(p.Eval(o.q.Agg)) >= b {
							out.AddPartial(p)
						}
					})
					return out
				})
				for _, g := range v.Groups() {
					p, _ := v.Get(g)
					o.cache[g] = model.Quantize(p.Eval(o.q.Agg))
					fresh[g] = true
				}
				// Silent nodes are provably below the bound; clamp any
				// stale-high cache to reflect that (their exact position
				// below the bound cannot affect membership).
				for g := range o.held {
					if !fresh[g] && o.cache[g] >= b {
						o.cache[g] = b - 0.01
					}
				}
				atOrAbove := 0
				for g := range fresh {
					if o.cache[g] >= b {
						atOrAbove++
					}
				}
				if atOrAbove >= o.q.K {
					break
				}
				bound -= 4 * pad
			}
			// Fallback: the descent did not surface K values (a mass
			// collapse); refresh everything.
			atOrAbove := 0
			for g := range fresh {
				if o.cache[g] >= bound {
					atOrAbove++
				}
			}
			if atOrAbove < o.q.K {
				probes++
				v := o.net.Sweep(e, radio.KindCtrl, readings, nil)
				for _, g := range v.Groups() {
					p, _ := v.Get(g)
					o.cache[g] = model.Quantize(p.Eval(o.q.Agg))
					fresh[g] = true
				}
			}
		}
	}
	o.Probes = append(o.Probes, probes)

	if len(violations) > 0 || probes > 0 {
		o.reinstall(e)
	}
	return o.ranking(), nil
}

// boundary returns τ; ok is false with K or fewer nodes (membership can
// never change then).
func (o *Operator) boundary() (model.Value, bool) {
	vals := o.sorted()
	if len(vals) <= o.q.K {
		return 0, false
	}
	return model.Quantize((vals[o.q.K-1].v + vals[o.q.K].v) / 2), true
}

type kv struct {
	g model.GroupID
	v model.Value
}

func (o *Operator) sorted() []kv {
	all := make([]kv, 0, len(o.cache))
	for g, v := range o.cache {
		all = append(all, kv{g, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].g < all[j].g
	})
	return all
}

// ranking returns the cached top-k.
func (o *Operator) ranking() []model.Answer {
	vals := o.sorted()
	k := o.q.K
	if k > len(vals) {
		k = len(vals)
	}
	answers := make([]model.Answer, 0, k)
	for _, p := range vals[:k] {
		answers = append(answers, model.Answer{Group: p.g, Score: p.v})
	}
	return answers
}

// pad is the window padding in value units.
func (o *Operator) pad() model.Value {
	if o.q.Range == nil {
		return 0.5
	}
	return (o.q.Range.Max - o.q.Range.Min) * model.Value(o.cfg.PadFrac)
}

// reinstall recomputes the two-zone windows (members [τ, +∞), the rest
// (−∞, τ)) and unicasts the ones that changed beyond the pad or switched
// zone. Stale windows are safe: resolve decisions use the held map, so an
// un-refreshed bound only widens the resolve sweep.
func (o *Operator) reinstall(e model.Epoch) {
	vals := o.sorted()
	if len(vals) == 0 {
		return
	}
	tau, hasTau := o.boundary()
	pad := o.pad()
	negInf := model.Value(math.Inf(-1))
	posInf := model.Value(math.Inf(1))

	for rank, p := range vals {
		var ideal window
		switch {
		case !hasTau:
			ideal = window{Lo: negInf, Hi: posInf}
		case rank < o.q.K:
			ideal = window{Lo: tau, Hi: posInf}
		default:
			ideal = window{Lo: negInf, Hi: tau}
		}
		cur, ok := o.held[p.g]
		if ok && sameZone(cur, ideal) && boundsClose(cur, ideal, pad) {
			continue
		}
		if o.net.RouteFromSink(o.group2[p.g], radio.KindBeacon, e, make([]byte, windowWireSize)) {
			o.held[p.g] = ideal
		}
	}
}

// sameZone reports whether two windows are on the same side of the
// boundary (member-shaped vs non-member-shaped).
func sameZone(a, b window) bool {
	return math.IsInf(float64(a.Hi), 1) == math.IsInf(float64(b.Hi), 1)
}

// boundsClose gates re-installation on the pad.
func boundsClose(a, b window, pad model.Value) bool {
	return closeBound(a.Lo, b.Lo, pad) && closeBound(a.Hi, b.Hi, pad)
}

func closeBound(a, b, pad model.Value) bool {
	aInf, bInf := math.IsInf(float64(a), 0), math.IsInf(float64(b), 0)
	if aInf || bInf {
		return aInf && bInf && math.Signbit(float64(a)) == math.Signbit(float64(b))
	}
	return abs(a-b) <= pad
}

func abs(v model.Value) model.Value {
	if v < 0 {
		return -v
	}
	return v
}

// SetCorrect reports whether two rankings agree as sets — FILA's
// correctness contract (membership exact outside pad-width ties, scores
// possibly stale).
func SetCorrect(got, want []model.Answer) bool {
	if len(got) != len(want) {
		return false
	}
	ws := model.AnswerSet(want)
	for _, a := range got {
		if !ws[a.Group] {
			return false
		}
	}
	return true
}
