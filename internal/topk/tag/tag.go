// Package tag implements the TAG/TinyDB baseline: full in-network GROUP BY
// aggregation with no top-k pruning. Every node forwards the partial
// aggregate of every group present in its subtree every epoch, and the sink
// applies the top-k operator centrally — the "straightforward" technique
// the paper's introduction describes and improves upon.
package tag

import (
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topk"
)

// Operator is the TAG snapshot operator.
type Operator struct {
	net       engine.Transport
	q         topk.SnapshotQuery
	installed bool
}

// New returns a TAG operator.
func New() *Operator { return &Operator{} }

// Name implements topk.SnapshotOperator.
func (o *Operator) Name() string { return "tag" }

// Attach implements topk.SnapshotOperator.
func (o *Operator) Attach(net engine.Transport, q topk.SnapshotQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	o.net, o.q = net, q
	o.installed = false
	return nil
}

// Epoch implements topk.SnapshotOperator: beacon down, full aggregation up,
// centralized top-k at the sink.
func (o *Operator) Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error) {
	if !o.installed {
		topk.InstallQuery(o.net, e)
		o.installed = true
	}
	sinkView := o.net.Sweep(e, radio.KindData, readings, nil)
	return sinkView.TopK(o.q.Agg, o.q.K), nil
}
