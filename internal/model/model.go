// Package model defines the shared data vocabulary of the KSpot system:
// node and group identifiers, sensor readings, per-group partial aggregates,
// in-network views, and the fixed-point wire representation used for byte
// accounting. Every other package (simulator, operators, query engine,
// statistics) speaks these types.
//
// Values are carried as fixed-point integers (centi-units) on the wire, the
// way a TinyOS mote would encode a 10-bit ADC sample, so that the byte costs
// reported by the System Panel reflect what a real MICA2 deployment pays.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a sensor node. The sink (base station) is always node 0,
// mirroring the paper's Figure 1 where the querying node is s0.
type NodeID uint16

// Sink is the NodeID of the base station.
const Sink NodeID = 0

// GroupID identifies a logical group (a room, a cluster, or a time instant in
// historic queries). GROUP BY attributes are mapped to GroupIDs by the
// scenario configuration.
type GroupID uint16

// Epoch numbers the rounds of a continuous query, starting at 0 (the epoch
// MINT calls the creation phase).
type Epoch uint32

// Value is a sensed value in engineering units (e.g. sound level percent,
// temperature in Fahrenheit). It travels the network as a fixed-point
// centi-unit (see FixedPoint).
type Value float64

// FixedPoint is the wire representation of a Value: hundredths of a unit in a
// signed 32-bit integer, the resolution the MTS310 board's 10-bit ADC
// meaningfully provides after calibration.
type FixedPoint int32

// ToFixed converts a Value to its wire representation, saturating at the
// int32 range rather than wrapping.
func ToFixed(v Value) FixedPoint {
	scaled := math.Round(float64(v) * 100)
	switch {
	case scaled > math.MaxInt32:
		return math.MaxInt32
	case scaled < math.MinInt32:
		return math.MinInt32
	}
	return FixedPoint(scaled)
}

// FromFixed converts a wire value back to engineering units.
func FromFixed(f FixedPoint) Value { return Value(f) / 100 }

// Quantize rounds a Value to the resolution that survives a wire round-trip.
// Operators compare quantized values so that simulator results match what a
// real deployment, limited to fixed-point radio payloads, would compute.
func Quantize(v Value) Value { return FromFixed(ToFixed(v)) }

// Reading is a single sample produced by a node at an epoch.
type Reading struct {
	Node  NodeID
	Group GroupID
	Epoch Epoch
	Value Value
}

func (r Reading) String() string {
	return fmt.Sprintf("s%d@e%d[g%d]=%.2f", r.Node, r.Epoch, r.Group, r.Value)
}

// AggKind enumerates the aggregate functions the KSpot query panel offers
// (the paper's Query Panel exposes AVG, MIN and MAX; SUM and COUNT come for
// free since AVG is carried as sum+count).
type AggKind uint8

const (
	AggAvg AggKind = iota
	AggMin
	AggMax
	AggSum
	AggCount
)

func (a AggKind) String() string {
	switch a {
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(a))
	}
}

// ParseAggKind maps the SQL spelling of an aggregate to its AggKind.
func ParseAggKind(s string) (AggKind, bool) {
	switch s {
	case "AVG", "AVERAGE", "avg", "average":
		return AggAvg, true
	case "MIN", "min":
		return AggMin, true
	case "MAX", "max":
		return AggMax, true
	case "SUM", "sum":
		return AggSum, true
	case "COUNT", "count":
		return AggCount, true
	}
	return AggAvg, false
}

// Partial is a decomposable partial aggregate for one group: the classic TAG
// (sum, count, min, max) record that merges associatively up the routing
// tree. Sums are held in fixed-point centi-units (SumFP) so that merging is
// exactly associative and commutative — the sink computes the same
// aggregate no matter how the routing tree shaped the additions, which is
// what a mote summing ADC integers does and what makes distributed results
// bit-identical to the centralized oracle.
type Partial struct {
	Group GroupID
	SumFP int64 // centi-units
	Count uint32
	MinFP FixedPoint
	MaxFP FixedPoint
}

// NewPartial seeds a partial aggregate from a single reading.
func NewPartial(g GroupID, v Value) Partial {
	f := ToFixed(v)
	return Partial{Group: g, SumFP: int64(f), Count: 1, MinFP: f, MaxFP: f}
}

// Sum returns the partial's sum in engineering units.
func (p Partial) Sum() Value { return Value(p.SumFP) / 100 }

// Min returns the minimum in engineering units.
func (p Partial) Min() Value { return FromFixed(p.MinFP) }

// Max returns the maximum in engineering units.
func (p Partial) Max() Value { return FromFixed(p.MaxFP) }

// Merge combines two partials of the same group. It panics if the groups
// differ, because merging across groups is always a caller bug.
func (p Partial) Merge(q Partial) Partial {
	if p.Count == 0 {
		return q
	}
	if q.Count == 0 {
		return p
	}
	if p.Group != q.Group {
		panic(fmt.Sprintf("model: merging partials of groups %d and %d", p.Group, q.Group))
	}
	out := Partial{Group: p.Group, SumFP: p.SumFP + q.SumFP, Count: p.Count + q.Count, MinFP: p.MinFP, MaxFP: p.MaxFP}
	if q.MinFP < out.MinFP {
		out.MinFP = q.MinFP
	}
	if q.MaxFP > out.MaxFP {
		out.MaxFP = q.MaxFP
	}
	return out
}

// Eval produces the aggregate's value under the given function. Eval of an
// empty partial is 0 for SUM/COUNT and NaN otherwise, so that callers can
// detect "no data" for order-sensitive aggregates. AVG divides the exact
// integer sum once, so its value is independent of merge order.
func (p Partial) Eval(kind AggKind) Value {
	if p.Count == 0 {
		if kind == AggSum || kind == AggCount {
			return 0
		}
		return Value(math.NaN())
	}
	switch kind {
	case AggAvg:
		return Value(p.SumFP) / Value(p.Count) / 100
	case AggMin:
		return p.Min()
	case AggMax:
		return p.Max()
	case AggSum:
		return p.Sum()
	case AggCount:
		return Value(p.Count)
	default:
		return Value(math.NaN())
	}
}

// Answer is one ranked result row: a group and its aggregate score.
type Answer struct {
	Group GroupID
	Score Value
}

func (a Answer) String() string { return fmt.Sprintf("(g%d, %.2f)", a.Group, a.Score) }

// View is an in-network view V_i: the per-group partial aggregates a node
// knows about its routing subtree. Views merge associatively (the superset
// property of MINT's hierarchy of views).
//
// A view has one form at every width: a slice of partials sorted by group
// id. AddPartial appends (or folds into the last entry) when groups arrive
// in ascending order, MergeView is one linear two-pointer pass into the
// view's merge buffer, and iteration, encoding and ranking walk the slice
// as it is — so once a view's capacity exists, building, merging, encoding
// and ranking it allocate nothing. Reset clears a view for reuse keeping
// its capacity; the sweep keeps its views in its frames for that reason.
type View struct {
	sorted []Partial // sorted by Group, one entry per group, every Count > 0
	merged []Partial // MergeView's output buffer, swapped with sorted
}

// NewView returns an empty view.
func NewView() *View { return &View{} }

// Reset empties the view for reuse, keeping the slice capacity.
func (v *View) Reset() { v.sorted = v.sorted[:0] }

// find locates a group in the sorted slice.
func (v *View) find(g GroupID) (int, bool) {
	return slices.BinarySearchFunc(v.sorted, g, func(p Partial, g GroupID) int {
		return cmp.Compare(p.Group, g)
	})
}

// Add merges a single reading into the view.
func (v *View) Add(r Reading) { v.AddPartial(NewPartial(r.Group, r.Value)) }

// AddPartial merges a partial aggregate into the view. A partial of a group
// at or above the view's last one costs O(1); any other is a binary search
// and, for a new group, an insertion.
func (v *View) AddPartial(p Partial) {
	if p.Count == 0 {
		return
	}
	n := len(v.sorted)
	switch {
	case n == 0 || v.sorted[n-1].Group < p.Group:
		v.sorted = append(v.sorted, p)
	case v.sorted[n-1].Group == p.Group:
		v.sorted[n-1] = v.sorted[n-1].Merge(p)
	default:
		if i, ok := v.find(p.Group); ok {
			v.sorted[i] = v.sorted[i].Merge(p)
		} else {
			v.sorted = slices.Insert(v.sorted, i, p)
		}
	}
}

// MergeView folds another view into this one in one pass over both.
func (v *View) MergeView(o *View) {
	if o == nil || len(o.sorted) == 0 {
		return
	}
	a, b := v.sorted, o.sorted
	if len(a) == 0 || a[len(a)-1].Group < b[0].Group {
		v.sorted = append(a, b...)
		return
	}
	out := v.merged[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Group < b[j].Group:
			out = append(out, a[i])
			i++
		case a[i].Group > b[j].Group:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i].Merge(b[j]))
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	v.sorted, v.merged = out, a
}

// ForEach calls f for every partial in the view, in ascending group order,
// without allocating. f must not mutate the view.
func (v *View) ForEach(f func(p Partial)) {
	for _, p := range v.sorted {
		f(p)
	}
}

// Get returns the partial for a group, if present.
func (v *View) Get(g GroupID) (Partial, bool) {
	if i, ok := v.find(g); ok {
		return v.sorted[i], true
	}
	return Partial{}, false
}

// Remove deletes a group's partial from the view (used by pruning phases).
func (v *View) Remove(g GroupID) {
	if i, ok := v.find(g); ok {
		v.sorted = slices.Delete(v.sorted, i, i+1)
	}
}

// Len reports the number of groups present.
func (v *View) Len() int { return len(v.sorted) }

// Groups returns the group ids present, sorted, for deterministic iteration.
func (v *View) Groups() []GroupID {
	gs := make([]GroupID, 0, len(v.sorted))
	for _, p := range v.sorted {
		gs = append(gs, p.Group)
	}
	return gs
}

// Clone returns a deep copy of the view.
func (v *View) Clone() *View {
	return &View{sorted: append([]Partial(nil), v.sorted...)}
}

// TopK ranks the view's groups by the aggregate and returns the K best
// answers. Ties break toward the smaller group id so that every component of
// the system (operators, reference evaluator, tests) agrees on one total
// order. Scores are quantized to wire resolution first: a real deployment
// never sees sub-centiunit differences, and the simulator must not either.
func (v *View) TopK(kind AggKind, k int) []Answer {
	if k <= 0 {
		return nil
	}
	return v.TopKInto(kind, k, make([]Answer, 0, v.Len()))
}

// TopKInto is TopK ranking into a caller-provided buffer: dst is truncated,
// filled, ranked and returned (re-sliced or grown as needed). With enough
// capacity it allocates nothing, which is what lets steady-state epochs run
// allocation-free.
func (v *View) TopKInto(kind AggKind, k int, dst []Answer) []Answer {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	for _, p := range v.sorted {
		dst = append(dst, Answer{Group: p.Group, Score: Quantize(p.Eval(kind))})
	}
	SortAnswers(dst)
	if len(dst) > k {
		dst = dst[:k]
	}
	return dst
}

// SortAnswers orders answers by descending score, then ascending group id.
// It is the single ranking order used across the system. The comparator is a
// total order (group ids are unique within a slice), so the sort needs no
// stability and runs without allocating.
func SortAnswers(answers []Answer) {
	slices.SortFunc(answers, func(a, b Answer) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Group, b.Group)
	})
}

// KthScore returns the score of the k-th ranked answer (1-based), or
// negative infinity when fewer than k answers exist. This is MINT's γ bound.
func KthScore(answers []Answer, k int) Value {
	if k <= 0 || len(answers) < k {
		return Value(math.Inf(-1))
	}
	return answers[k-1].Score
}

// AnswerSet converts a ranked slice to a membership set.
func AnswerSet(answers []Answer) map[GroupID]bool {
	s := make(map[GroupID]bool, len(answers))
	for _, a := range answers {
		s[a.Group] = true
	}
	return s
}

// EqualAnswers reports whether two ranked answer slices are identical in
// order, group and score (after quantization).
func EqualAnswers(a, b []Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Group != b[i].Group || Quantize(a[i].Score) != Quantize(b[i].Score) {
			return false
		}
	}
	return true
}

// Recall computes |got ∩ want| / |want| over the group sets of two answer
// slices — the metric experiment E9 reports for the naive strategy.
func Recall(got, want []Answer) float64 {
	if len(want) == 0 {
		return 1
	}
	ws := AnswerSet(want)
	hit := 0
	for _, a := range got {
		if ws[a.Group] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
