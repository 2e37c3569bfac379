// Package storage provides a KSpot client's local buffering: the sliding
// window of recent readings that historic queries run over (standing in for
// the flash buffers the paper's motes index with MicroHash). Store is a
// shard's worth of windows, durable when given a data directory; Log is the
// one append-only file format that directory holds.
package storage

import (
	"fmt"

	"kspot/internal/model"
)

// Window is a fixed-capacity sliding window of readings, indexed by epoch.
// It stores values in wire fixed-point, as a mote's SRAM or flash would.
type Window struct {
	capacity int
	values   []model.FixedPoint
	epochs   []model.Epoch
	start    int // ring index of the oldest element
	size     int
	lastE    model.Epoch
	hasLast  bool
}

// NewWindow returns a window holding up to capacity readings.
func NewWindow(capacity int) (*Window, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: window.capacity: must be >= 1, got %d", capacity)
	}
	return &Window{
		capacity: capacity,
		values:   make([]model.FixedPoint, capacity),
		epochs:   make([]model.Epoch, capacity),
	}, nil
}

// Capacity returns the maximum number of buffered readings.
func (w *Window) Capacity() int { return w.capacity }

// Len returns the number of buffered readings.
func (w *Window) Len() int { return w.size }

// Push appends a reading, evicting the oldest when full. Epochs must be
// strictly increasing; regressions are rejected (a mote's clock only runs
// forward between reboots, and a reboot clears the buffer anyway).
func (w *Window) Push(e model.Epoch, v model.Value) error {
	if w.hasLast && e <= w.lastE {
		return fmt.Errorf("storage: window.push: epoch %d not after %d", e, w.lastE)
	}
	fp := model.ToFixed(v)
	idx := (w.start + w.size) % w.capacity
	if w.size == w.capacity {
		idx = w.start
		w.start = (w.start + 1) % w.capacity
	} else {
		w.size++
	}
	w.values[idx] = fp
	w.epochs[idx] = e
	w.lastE = e
	w.hasLast = true
	return nil
}

// At returns the i-th oldest buffered reading (0 = oldest).
func (w *Window) At(i int) (model.Epoch, model.Value, error) {
	if i < 0 || i >= w.size {
		return 0, 0, fmt.Errorf("storage: window.at[%d]: out of range [0,%d)", i, w.size)
	}
	idx := (w.start + i) % w.capacity
	return w.epochs[idx], model.FromFixed(w.values[idx]), nil
}

// Series materializes the window oldest-first — the layout historic
// operators consume (window offset = series index).
func (w *Window) Series() []model.Value {
	out := make([]model.Value, w.size)
	for i := 0; i < w.size; i++ {
		idx := (w.start + i) % w.capacity
		out[i] = model.FromFixed(w.values[idx])
	}
	return out
}

// Epochs materializes the buffered epochs oldest-first.
func (w *Window) Epochs() []model.Epoch {
	out := make([]model.Epoch, w.size)
	for i := 0; i < w.size; i++ {
		idx := (w.start + i) % w.capacity
		out[i] = w.epochs[idx]
	}
	return out
}

// LastEpoch returns the most recently pushed epoch, if any push has been
// accepted since the last Clear.
func (w *Window) LastEpoch() (model.Epoch, bool) { return w.lastE, w.hasLast }

// Clear empties the window (mote reboot).
func (w *Window) Clear() {
	w.start, w.size, w.hasLast = 0, 0, false
}
