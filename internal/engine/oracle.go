package engine

import (
	"sync"

	"kspot/internal/model"
)

// Oracle is the exact answer over one epoch's readings union — the ground
// truth every query that ran on that union is scored against. The
// scheduler creates one per union per epoch and every Outcome of the epoch
// points at it, so M cursors over the same readings cost one fold of the
// readings and one ranking per aggregate, not M of each.
//
// It is built on first use, by whichever cursor asks first and outside the
// scheduler's epoch lock: an epoch nobody scores costs nothing, and
// scoring never delays the next round. Cursors of one tier may be stepped
// from different goroutines, hence the oracle's own mutex.
type Oracle struct {
	readings map[model.NodeID]model.Reading // read-only

	mu    sync.Mutex
	built bool
	view  model.View
	// ranked[agg] is the aggregate's full ranking of the view. SortAnswers
	// is a total order, so the exact TOP-K is its K-prefix for every K.
	ranked [model.AggCount + 1][]model.Answer
}

// Exact returns the exact TOP-k of the union under the aggregate: what
// topk.ExactSnapshot computes over the same readings, element for element.
// The slice is the caller's own — a fresh copy of the shared ranking's
// prefix.
func (o *Oracle) Exact(agg model.AggKind, k int) []model.Answer {
	if k <= 0 {
		return nil
	}
	prefix := o.prefix(agg, k)
	return append(make([]model.Answer, 0, len(prefix)), prefix...)
}

// Matches reports whether answers are the exact TOP-k of the union under
// the aggregate — model.EqualAnswers(answers, o.Exact(agg, k)) — comparing
// in place against the shared ranking, with no copy.
func (o *Oracle) Matches(agg model.AggKind, k int, answers []model.Answer) bool {
	if k <= 0 {
		return len(answers) == 0
	}
	return model.EqualAnswers(answers, o.prefix(agg, k))
}

// prefix returns the shared ranking's K-prefix, building the oracle and the
// aggregate's ranking on first use. The slice is the oracle's: read-only.
func (o *Oracle) prefix(agg model.AggKind, k int) []model.Answer {
	o.mu.Lock()
	if !o.built {
		o.build()
		o.built = true
	}
	full := o.ranked[agg]
	if full == nil {
		full = o.view.TopK(agg, o.view.Len())
		o.ranked[agg] = full
	}
	o.mu.Unlock()
	return full[:min(k, len(full))]
}

// build folds the readings into one partial per group, indexed by group
// id, and adds those to the view in ascending id: O(readings + groups),
// each add an append. The index at least doubles when it grows, in one
// allocation; slots past its length were zeroed by that allocation and
// never written.
func (o *Oracle) build() {
	var byGroup []model.Partial
	for _, r := range o.readings {
		if n := int(r.Group) + 1; n > len(byGroup) {
			if n > cap(byGroup) {
				byGroup = append(make([]model.Partial, 0, max(n, 2*cap(byGroup))), byGroup...)
			}
			byGroup = byGroup[:n]
		}
		byGroup[r.Group] = byGroup[r.Group].Merge(model.NewPartial(r.Group, r.Value))
	}
	for _, p := range byGroup {
		o.view.AddPartial(p)
	}
}
