// Package naive implements the incorrect greedy strategy of the paper's
// §III-A: every node locally keeps only its top-k partial aggregates and
// discards the rest. On Figure 1 with k=1 this discards s9's (D,39) at s4
// and makes the sink report (D,76.5) instead of the correct (C,75). It
// exists as the cautionary baseline whose recall the benchmarks report.
package naive

import (
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topk"
)

// Operator is the naive greedy snapshot operator.
type Operator struct {
	net       engine.Transport
	q         topk.SnapshotQuery
	installed bool
}

// New returns a naive operator.
func New() *Operator { return &Operator{} }

// Name implements topk.SnapshotOperator.
func (o *Operator) Name() string { return "naive" }

// Attach implements topk.SnapshotOperator.
func (o *Operator) Attach(net engine.Transport, q topk.SnapshotQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	o.net, o.q = net, q
	o.installed = false
	return nil
}

// Epoch implements topk.SnapshotOperator.
func (o *Operator) Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error) {
	if !o.installed {
		topk.InstallQuery(o.net, e)
		o.installed = true
	}
	sinkView := o.net.Sweep(e, radio.KindData, readings, func(_ model.NodeID, v *model.View) *model.View {
		top := v.TopK(o.q.Agg, o.q.K)
		keep := model.AnswerSet(top)
		out := model.AcquireView() // transport-owned, recycled after transmit
		v.ForEach(func(p model.Partial) {
			if keep[p.Group] {
				out.AddPartial(p)
			}
		})
		return out
	})
	return sinkView.TopK(o.q.Agg, o.q.K), nil
}
