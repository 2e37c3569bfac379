package storage

import (
	"testing"

	"kspot/internal/model"
)

// TestBufferSeries: materializing windows through the real buffering
// path must reproduce the sampled values (at wire quantization) in
// epoch order, per node, and reject a zero-length window.
func TestBufferSeries(t *testing.T) {
	sample := func(n model.NodeID, e model.Epoch) model.Value {
		return model.Value(n)*10 + model.Value(e) + 0.004 // sub-centi noise quantizes away
	}
	nodes := []model.NodeID{1, 2, 5}
	out, err := BufferSeries(nodes, 4, sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(nodes) {
		t.Fatalf("buffered %d nodes, want %d", len(out), len(nodes))
	}
	for _, n := range nodes {
		series := out[n]
		if len(series) != 4 {
			t.Fatalf("node %d series length %d, want 4", n, len(series))
		}
		for e, v := range series {
			if want := model.Quantize(sample(n, model.Epoch(e))); v != want {
				t.Fatalf("node %d offset %d = %v, want %v (offset must equal epoch)", n, e, v, want)
			}
		}
	}
	if _, err := BufferSeries(nodes, 0, sample); err == nil {
		t.Fatal("zero-length window accepted")
	}
}
