package storage

import (
	"testing"

	"kspot/internal/model"
)

func TestWindowBasics(t *testing.T) {
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Capacity() != 3 || w.Len() != 0 {
		t.Fatal("fresh window shape")
	}
	for e := model.Epoch(1); e <= 3; e++ {
		if err := w.Push(e, model.Value(e)*10); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	e, v, err := w.At(0)
	if err != nil || e != 1 || v != 10 {
		t.Fatalf("At(0) = %d,%v,%v", e, v, err)
	}
}

func TestWindowEviction(t *testing.T) {
	w, _ := NewWindow(3)
	for e := model.Epoch(1); e <= 5; e++ {
		if err := w.Push(e, model.Value(e)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	got := w.Series()
	want := []model.Value{3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
	epochs := w.Epochs()
	if epochs[0] != 3 || epochs[2] != 5 {
		t.Fatalf("Epochs = %v", epochs)
	}
}

func TestWindowRejectsRegression(t *testing.T) {
	w, _ := NewWindow(4)
	if err := w.Push(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Push(5, 2); err == nil {
		t.Fatal("duplicate epoch accepted")
	}
	if err := w.Push(4, 2); err == nil {
		t.Fatal("regressing epoch accepted")
	}
}

func TestWindowAtBounds(t *testing.T) {
	w, _ := NewWindow(2)
	if _, _, err := w.At(0); err == nil {
		t.Fatal("At on empty window accepted")
	}
	w.Push(1, 1)
	if _, _, err := w.At(1); err == nil {
		t.Fatal("At beyond size accepted")
	}
	if _, _, err := w.At(-1); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestWindowClear(t *testing.T) {
	w, _ := NewWindow(2)
	w.Push(1, 1)
	w.Clear()
	if w.Len() != 0 {
		t.Fatal("Clear did not empty")
	}
	if err := w.Push(1, 1); err != nil {
		t.Fatalf("push after clear: %v", err)
	}
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewWindow(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

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
