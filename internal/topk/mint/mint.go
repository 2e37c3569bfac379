// Package mint implements the MINT Views algorithm (Zeinalipour-Yazti,
// Andreou, Chrysanthis, Samaras — IEEE MDM 2007), the snapshot top-k
// operator KSpot routes GROUP BY queries to. MINT constructs an in-network
// hierarchy of views in which ancestors maintain a superset view of their
// descendants, and prunes tuples that provably cannot be among the final
// top-k answers.
//
// The three phases of the demo paper's §III-A:
//
//  1. Creation phase (epoch 0): no pruning; every node's full view V_i
//     percolates to the sink, which materializes V0 and computes the bound
//     γ = score of the K-th ranked answer.
//  2. Pruning phase (every subsequent epoch): γ and the current top-k
//     membership ride the downstream epoch beacon. Each node prunes its
//     view V_i to V'_i ⊆ V_i using two γ-descriptor rules:
//     - a *complete* partial (the node's subtree covers the whole cluster,
//     i.e. the node is at or above the group's master) is suppressed
//     when its exact score is below γ and the group is not a current
//     answer;
//     - an *incomplete* partial is suppressed when even the most
//     optimistic completion — every unseen member reading the
//     attribute's calibrated maximum — leaves the group's score below
//     γ. This is the descriptor "bounding above the attributes in V0"
//     from the paper; naively dropping low incomplete partials instead
//     is exactly the wrongful (D,76.5) elimination of Figure 1.
//  3. Update phase: V'_i is encoded and shipped one hop up; empty V'_i
//     suppresses the packet entirely.
//
// The sink ranks only groups whose fresh aggregates are complete: an
// incomplete group at the sink means some node proved its bound below γ
// (or, on a lossy link, that a frame died). One condition forces extra
// same-epoch rounds, and it is rare: when the fresh K-th score drops below
// the broadcast γ, groups in [K-th, γ) may have been wrongly suppressed,
// so the sink re-polls with the lowered bound (*recovery*).
//
// The epoch loop re-polls until the K-th score holds the bound; the bound
// decreases monotonically, so it terminates (≤ 4 rounds is asserted, ≥ 2
// only under answer churn). Disabling the loop (Config.NoRecovery) reproduces the
// staleness a bound-less design would suffer; experiment E11 measures it.
package mint

import (
	"fmt"
	"math"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topk"
	"kspot/internal/topo"
)

// Config tunes the operator.
type Config struct {
	// NoRecovery disables the same-epoch recovery loop (E11
	// ablation): the sink serves the possibly-stale ranking instead of
	// re-polling when the bound's invariant breaks.
	NoRecovery bool
	// Slack widens the suppression band: groups must exceed γ+Slack to
	// report, and the recovery loop tolerates a K-th score as low as
	// γ−Slack. Zero keeps results exact; positive slack trades bounded
	// ranking error for traffic.
	Slack model.Value
	// Margin lowers the broadcast bound below the K-th score, so ordinary
	// sensor jitter does not drop the K-th under γ and trigger a recovery
	// round every epoch. Results stay exact for any margin ≥ 0 (a lower
	// bound only admits more reporters). Zero means "auto": DefaultMarginFrac
	// of the declared value range, or no margin when no range is declared.
	// Negative forces an exact-K-th bound (used by tests).
	Margin model.Value
}

// DefaultMarginFrac is the auto-margin: the broadcast bound sits this
// fraction of the value range below the K-th score, absorbing ordinary
// sensor jitter so that recovery rounds fire only on genuine answer churn.
const DefaultMarginFrac = 0.025

// margin resolves the configured margin against the query's range.
func (o *Operator) margin() model.Value {
	switch {
	case o.cfg.Margin > 0:
		return o.cfg.Margin
	case o.cfg.Margin < 0:
		return 0
	case o.q.Range != nil:
		return (o.q.Range.Max - o.q.Range.Min) * DefaultMarginFrac
	default:
		return 0
	}
}

// Operator is the MINT snapshot operator.
type Operator struct {
	cfg Config

	net engine.Transport
	q   topk.SnapshotQuery
	// groupSize is the declared sensor count of each group, indexed by
	// group id: every partial of every node's prune reads it.
	groupSize []int
	masters   map[model.GroupID]model.NodeID
	nGroups   int

	created bool
	// bcast is the γ bound currently installed at the nodes (the last
	// flooded value); floods happen only when it must change.
	bcast   model.Value
	topKNow []model.Answer

	// vSink and completeView are Epoch's sink-side views — the fresh
	// partials of every round, and those of them that cover their group —
	// reset on each use. An operator's Epoch never runs concurrently with
	// itself.
	vSink, completeView model.View
}

// New returns a MINT operator with default configuration.
func New() *Operator { return NewWithConfig(Config{}) }

// NewWithConfig returns a MINT operator with explicit configuration.
func NewWithConfig(cfg Config) *Operator { return &Operator{cfg: cfg} }

// Name implements topk.SnapshotOperator.
func (o *Operator) Name() string {
	if o.cfg.NoRecovery {
		return "mint-norecovery"
	}
	return "mint"
}

// Attach implements topk.SnapshotOperator.
func (o *Operator) Attach(net engine.Transport, q topk.SnapshotQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if o.cfg.Slack < 0 {
		return fmt.Errorf("mint: negative slack %v", o.cfg.Slack)
	}
	o.net, o.q = net, q
	o.groupSize = nil
	for g, n := range net.Topology().GroupSize() {
		if int(g) >= len(o.groupSize) {
			o.groupSize = append(o.groupSize, make([]int, int(g)+1-len(o.groupSize))...)
		}
		o.groupSize[g] = n
	}
	o.masters = topo.GroupMaster(net.Routing(), net.Topology())
	o.nGroups = len(net.Topology().GroupIDs())
	o.created = false
	o.bcast = topk.MinusInf()
	o.topKNow = nil
	return nil
}

// size returns a group's declared sensor count (0 for a group the
// placement does not know).
func (o *Operator) size(g model.GroupID) int {
	if int(g) >= len(o.groupSize) {
		return 0
	}
	return o.groupSize[g]
}

// complete reports whether a partial covers its whole group.
func (o *Operator) complete(p model.Partial) bool {
	return int(p.Count) >= o.size(p.Group)
}

// upperBound is the γ-descriptor: the highest score the group could attain
// given the partial seen so far, assuming every unseen member reads the
// attribute's calibrated maximum. Without a declared range the bound is
// +Inf (incomplete partials can never be pruned), which is the conservative
// fallback the creation phase also uses.
func (o *Operator) upperBound(p model.Partial) model.Value {
	if o.complete(p) {
		return model.Quantize(p.Eval(o.q.Agg))
	}
	if o.q.Range == nil {
		return model.Value(math.Inf(1))
	}
	g := o.size(p.Group)
	missing := int64(g) - int64(p.Count)
	vmaxFP := int64(model.ToFixed(o.q.Range.Max))
	switch o.q.Agg {
	case model.AggAvg:
		return model.Quantize(model.Value(p.SumFP+missing*vmaxFP) / model.Value(g) / 100)
	case model.AggSum:
		return model.Quantize(model.Value(p.SumFP+missing*vmaxFP) / 100)
	case model.AggMin:
		// Unseen readings can only lower a MIN; the partial's own min is
		// already an upper bound on the group's score.
		return p.Min()
	case model.AggMax:
		return o.q.Range.Max
	case model.AggCount:
		return model.Value(g)
	default:
		return model.Value(math.Inf(1))
	}
}

// prune builds V'_i from V_i under the bound into out, the transport's view
// for the node (see engine.PruneFunc), by a single filtering pass in group
// order: a partial flows only while it could still be (or tie into) the
// top-k.
func (o *Operator) prune(v, out *model.View, bound model.Value) *model.View {
	threshold := bound + o.cfg.Slack
	v.ForEach(func(p model.Partial) {
		if o.upperBound(p) >= threshold {
			out.AddPartial(p)
		}
	})
	return out
}

// Epoch implements topk.SnapshotOperator.
func (o *Operator) Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error) {
	// Creation phase: install the query (one flood) and run one full
	// TAG-style acquisition; the first tightening flood below installs γ.
	if !o.created {
		topk.InstallQuery(o.net, e)
		v0 := o.net.Sweep(e, radio.KindData, readings, nil)
		o.topKNow = v0.TopK(o.q.Agg, o.q.K)
		o.created = true
		o.retune(e, model.KthScore(o.topKNow, o.q.K))
		return o.topKNow, nil
	}

	bound := o.bcast
	vSink := &o.vSink
	vSink.Reset()
	var answers []model.Answer
	var kth model.Value
	rounds := 0
	for {
		rounds++
		fresh := o.sweep(e, bound, readings)
		// Later rounds re-report whole groups from scratch: replace, don't
		// double-merge. (fresh is transport-owned: consumed before the next
		// sweep, never retained.)
		fresh.ForEach(func(p model.Partial) {
			vSink.Remove(p.Group)
			vSink.AddPartial(p)
		})
		// Rank complete groups. An incomplete group at the sink means some
		// node proved its γ-descriptor bound below the broadcast γ (or, on
		// a lossy link, a frame died); it is excluded.
		o.completeView.Reset()
		vSink.ForEach(func(p model.Partial) {
			if o.complete(p) {
				o.completeView.AddPartial(p)
			}
		})
		answers = o.completeView.TopK(o.q.Agg, o.q.K)
		// In approximate (slack) mode the materialized view serves stale
		// entries for suppressed answer slots instead of re-polling; in
		// exact mode a short answer collapses the bound (KthScore returns
		// -Inf) and the recovery round degenerates to a full TAG sweep.
		if o.cfg.Slack > 0 && len(answers) < o.q.K {
			answers = padAnswers(answers, o.topKNow, o.q.K)
		}
		kth = model.KthScore(answers, o.q.K)
		if o.cfg.NoRecovery {
			break
		}
		if kth >= bound-o.cfg.Slack {
			break
		}
		if rounds >= 4 {
			// The bound decreases monotonically, so this is unreachable;
			// guard anyway rather than loop a deployment forever.
			break
		}
		bound = kth - o.margin()
		// A recovery round needs new control state at the nodes: flood
		// the lowered bound.
		o.flood(e, bound)
	}

	if len(answers) > 0 {
		o.topKNow = answers
		o.retune(e, kth)
	}
	return o.topKNow, nil
}

// retune re-floods the γ bound when the fresh K-th score has drifted so far
// from the installed value that either correctness (bound above K-th) or
// efficiency (bound more than 2 margins below K-th) calls for it.
func (o *Operator) retune(e model.Epoch, kth model.Value) {
	m := o.margin()
	target := kth - m
	if target < o.bcast || target > o.bcast+2*m+o.cfg.Slack {
		o.flood(e, target)
	}
}

// flood broadcasts a γ beacon and records it as the nodes' installed bound.
func (o *Operator) flood(e model.Epoch, bound model.Value) {
	beacon := topk.EncodeBeacon(topk.Beacon{Epoch: e, Gamma: bound})
	o.net.BroadcastDown(radio.KindBeacon, e, func(model.NodeID) []byte { return beacon })
	o.bcast = bound
}

// sweep runs one pruned up-sweep under the installed bound and returns the
// sink's fresh view.
func (o *Operator) sweep(e model.Epoch, bound model.Value, readings map[model.NodeID]model.Reading) *model.View {
	return o.net.Sweep(e, radio.KindData, readings, func(_ model.NodeID, v, out *model.View) *model.View {
		return o.prune(v, out, bound)
	})
}

// Gamma exposes the installed γ bound for the System Panel and tests.
func (o *Operator) Gamma() model.Value { return o.bcast }

// padAnswers fills missing answer slots with stale entries from the
// previous materialized ranking, preserving rank order.
func padAnswers(fresh, prev []model.Answer, k int) []model.Answer {
	have := model.AnswerSet(fresh)
	out := append([]model.Answer(nil), fresh...)
	for _, a := range prev {
		if len(out) >= k {
			break
		}
		if !have[a.Group] {
			out = append(out, a)
			have[a.Group] = true
		}
	}
	model.SortAnswers(out)
	return out
}
