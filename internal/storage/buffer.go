package storage

import (
	"fmt"

	"kspot/internal/model"
)

// BufferSeries materializes each node's buffered history for a historic
// query by replaying epochs [0, window) through a Window per node — the
// simulator's stand-in for the motes' flash buffers — and returning the
// buffered series oldest-first (window offset = series index), the layout
// the historic operators consume.
//
// Routing the materialization through Window (rather than slicing the
// trace directly) keeps the historic pipeline on the same buffering code
// path a shard's durable tier (Store) records through, so capacity and
// eviction semantics are exercised identically everywhere. On a federated
// deployment each shard buffers only its own nodes, but samples the same
// flat trace by global node id — per-epoch indices therefore align across
// shards at the coordinator with no translation.
func BufferSeries(nodes []model.NodeID, window int, sample func(model.NodeID, model.Epoch) model.Value) (map[model.NodeID][]model.Value, error) {
	out := make(map[model.NodeID][]model.Value, len(nodes))
	for _, n := range nodes {
		win, err := NewWindow(window)
		if err != nil {
			return nil, fmt.Errorf("storage: buffering node %d: %w", n, err)
		}
		for e := 0; e < window; e++ {
			if err := win.Push(model.Epoch(e), sample(n, model.Epoch(e))); err != nil {
				return nil, fmt.Errorf("storage: buffering node %d: %w", n, err)
			}
		}
		out[n] = win.Series()
	}
	return out, nil
}
