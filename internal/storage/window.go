// Package storage provides a KSpot client's local buffering: the sliding
// window of recent readings that historic queries run over, and a
// MicroHash-style value index (Zeinalipour-Yazti et al., USENIX FAST 2005 —
// the flash index the paper cites for devices that buffer on secondary
// storage) that answers "which buffered instants scored at least v" without
// scanning the whole window. Store is a shard's worth of windows, durable
// when given a data directory; Log is the one append-only file format that
// directory holds.
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
	pushed   uint64 // monotone count of every Push ever (survives Clear)
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
	w.pushed++
	w.lastE = e
	w.hasLast = true
	return nil
}

// Pushes returns the monotone count of every Push the window ever accepted.
// The i-th accepted push (0-based) currently sits at offset i−(Pushes−Len),
// or has been evicted when that is negative — the O(1) base-offset scheme
// MicroHash chains rely on. The counter survives Clear (which simply makes
// every earlier push evicted), so derived offsets can never resurrect.
func (w *Window) Pushes() uint64 { return w.pushed }

// OffsetOfPush maps a push counter (as observed via Pushes()−1 right after
// the push) to the current window offset, or −1 if that reading has been
// evicted.
func (w *Window) OffsetOfPush(c uint64) int {
	evicted := w.pushed - uint64(w.size)
	if c < evicted || c >= w.pushed {
		return -1
	}
	return int(c - evicted)
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

// TopK returns the window offsets of the k highest buffered values, ranked,
// ties toward older offsets — the node-local seed of TJA's LB phase.
func (w *Window) TopK(k int) []int {
	type pair struct {
		off int
		v   model.FixedPoint
	}
	ps := make([]pair, w.size)
	for i := 0; i < w.size; i++ {
		idx := (w.start + i) % w.capacity
		ps[i] = pair{i, w.values[idx]}
	}
	// Selection by partial sort: windows are small (≤ 64K), sort is fine.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && (ps[j].v > ps[j-1].v || (ps[j].v == ps[j-1].v && ps[j].off < ps[j-1].off)); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	if k > len(ps) {
		k = len(ps)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].off
	}
	return out
}
