package storage

import (
	"fmt"

	"kspot/internal/model"
)

// BufferSeries materializes each node's buffered history for a historic
// query — the simulator's stand-in for the motes' flash buffers: epochs
// [0, window) sampled per node, quantized to the fixed-point resolution a
// buffer stores, oldest-first (window offset = series index), the layout
// the historic operators consume. The series share one backing array, each
// capped at its window.
//
// On a federated deployment each shard buffers only its own nodes, but
// samples the same flat trace by global node id — per-epoch indices
// therefore align across shards at the coordinator with no translation.
func BufferSeries(nodes []model.NodeID, window int, sample func(model.NodeID, model.Epoch) model.Value) (map[model.NodeID][]model.Value, error) {
	if window < 1 {
		return nil, fmt.Errorf("storage: history window: must be >= 1, got %d", window)
	}
	out := make(map[model.NodeID][]model.Value, len(nodes))
	buf := make([]model.Value, len(nodes)*window)
	for i, n := range nodes {
		series := buf[i*window : (i+1)*window : (i+1)*window]
		for e := range series {
			series[e] = model.Quantize(sample(n, model.Epoch(e)))
		}
		out[n] = series
	}
	return out, nil
}
