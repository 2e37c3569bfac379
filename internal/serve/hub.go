// Package serve is the streaming results tier of a KSpot daemon. One Hub
// carries every posted query: a ring of epoch frames, where slot q of a
// frame is query q's result for that epoch, read by any number of
// subscribers (SSE connections in cmd/kspotd). A subscriber is a query
// index and a read position into the ring, so a publish is one copy and one
// wake-up however many queries and subscribers there are.
//
// The hub decouples the epoch clock from the consumers: a slow subscriber
// never back-pressures the deployment's lock-step, and it loses nothing —
// the ring never overwrites a frame a live subscriber has yet to read; it
// doubles instead, and shrinks back once nobody lags. A new subscriber
// replays the last frames (the replay window), so every subscriber of one
// query observes the identical per-epoch sequence regardless of when it
// connected.
package serve

import (
	"sync"

	"kspot/internal/model"
)

// Result is one published epoch of a query.
type Result struct {
	Epoch   model.Epoch    `json:"epoch"`
	Answers []model.Answer `json:"answers"`
	Correct bool           `json:"correct"`
	// Err carries an epoch error (shard loss) as text; the stream
	// continues, mirroring the cursor's buffered-outcome semantics.
	Err string `json:"err,omitempty"`
}

// Hub is a ring of epoch frames indexed by a monotone sequence number: the
// frame published n-th has sequence n and lives in ring[n % len(ring)].
// All methods are safe for concurrent use.
type Hub struct {
	mu   sync.Mutex
	wake sync.Cond // on mu; broadcast whenever a subscriber may proceed

	// window is the replay window in frames and the ring's size while no
	// subscriber lags behind it.
	window int
	ring   []slot
	// start and next bound the retained frames: [start, next).
	start, next uint64
	// atHead counts the live subscribers positioned at next (caught up);
	// those positioned at a retained frame are counted in its slot.
	atHead int
	// low is a watermark: no live subscriber is positioned before it.
	low uint64

	ends   map[int]uint64 // End(q): q's stream stops before this sequence
	subs   int            // live subscribers
	closed bool
}

// slot is one ring entry: a reused frame array and the number of live
// subscribers whose next read is this frame.
type slot struct {
	frame   []Result
	readers int
}

// NewHub builds a hub whose replay window keeps the last cacheCap frames
// (0 selects the default of 64).
func NewHub(cacheCap int) *Hub {
	if cacheCap <= 0 {
		cacheCap = 64
	}
	h := &Hub{window: cacheCap, ring: make([]slot, cacheCap)}
	h.wake.L = &h.mu
	return h
}

// Publish appends one epoch frame: frame[q] is query q's result. The frame
// is copied into the ring slot's own array, so the caller may reuse it, and
// a steady-state publish allocates nothing. Publishing on a closed hub is a
// no-op.
func (h *Hub) Publish(frame ...Result) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if h.next-h.start == uint64(len(h.ring)) {
		if h.oldestUnread() == h.start {
			h.resize(2 * len(h.ring)) // lossless: a live subscriber still needs the oldest frame
		} else {
			h.start++
		}
	}
	s := &h.ring[h.next%uint64(len(h.ring))]
	s.frame = append(s.frame[:0], frame...)
	s.readers, h.atHead = h.atHead, 0
	h.next++
	// Shrink once nobody is more than half a window behind, not merely
	// inside it: a subscriber hovering a window behind would otherwise
	// grow and shrink the ring every few epochs.
	if len(h.ring) > h.window && h.oldestUnread()+uint64(h.window/2) >= h.next {
		h.resize(h.window)
	}
	h.wake.Broadcast()
}

// oldestUnread returns the oldest retained frame a live subscriber has yet
// to read, or next if there is none. Read positions only move forward and
// Watch lowers the watermark itself, so the scan costs O(1) amortised per
// publish.
func (h *Hub) oldestUnread() uint64 {
	h.low = max(h.low, h.start)
	for h.low < h.next && h.ring[h.low%uint64(len(h.ring))].readers == 0 {
		h.low++
	}
	return h.low
}

// resize moves the newest min(n, retained) frames into a ring of n slots.
func (h *Hub) resize(n int) {
	if h.next-h.start > uint64(n) {
		h.start = h.next - uint64(n)
	}
	ring := make([]slot, n)
	for seq := h.start; seq < h.next; seq++ {
		ring[seq%uint64(n)] = h.ring[seq%uint64(len(h.ring))]
	}
	h.ring = ring
}

// readers is the live-subscriber count at position seq (start ≤ seq ≤ next).
func (h *Hub) readers(seq uint64) *int {
	if seq == h.next {
		return &h.atHead
	}
	return &h.ring[seq%uint64(len(h.ring))].readers
}

// Watch subscribes to query q (q ≥ 0), starting at the oldest frame of the
// replay window: a subscriber joining at epoch e receives the window's
// epochs before e, then the live stream — the same sequence an earlier
// subscriber sees (up to the window). A frame shorter than q+1 predates the
// query and is skipped. Watching on a closed hub returns a subscriber that
// drains the window and then reports closed.
func (h *Hub) Watch(q int) *Subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &Subscriber{h: h, q: q, pos: h.start, end: ^uint64(0)}
	if h.next-s.pos > uint64(h.window) {
		s.pos = h.next - uint64(h.window)
	}
	if !h.closed {
		s.live = true
		h.subs++
		*h.readers(s.pos)++
		h.low = min(h.low, s.pos)
	}
	return s
}

// Subscribe is Watch(0). Named by frozen benchmark/, which builds one hub
// per query; delete it when benchmark/ is next changed.
func (h *Hub) Subscribe() *Subscriber { return h.Watch(0) }

// End ends query q's stream at the current sequence: its subscribers drain
// the frames published so far, then Next returns false; the other queries
// keep streaming. Later frames may carry anything in slot q.
func (h *Hub) End(q int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.ends[q]; ok {
		return
	}
	if h.ends == nil {
		h.ends = make(map[int]uint64)
	}
	h.ends[q] = h.next
	h.wake.Broadcast()
}

// Close ends every stream: each subscriber drains what was published, then
// its Next returns false. Safe to call multiple times.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.wake.Broadcast()
}

// Subscribers reports the live subscribers over every query; a closed hub
// has none.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	return h.subs
}

// Subscriber is one consumer's seat on a hub: a query index and a read
// position into the ring. While it is live the ring keeps every frame from
// its position on, so a slow consumer loses nothing and stalls nobody.
type Subscriber struct {
	h    *Hub
	q    int
	pos  uint64 // sequence of the next frame to read
	end  uint64 // Close: the stream stops before this sequence
	live bool   // counted in the hub and holding its position's frame
}

// Next blocks until a result is available and returns it; ok is false once
// the stream ended (End, hub or subscriber closed) and the frames before
// its end have drained.
func (s *Subscriber) Next() (Result, bool) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		end := s.end
		if e, ok := h.ends[s.q]; ok {
			end = min(end, e)
		}
		if h.closed {
			end = min(end, h.next)
		}
		// A closed subscriber holds no frame; one the ring dropped is gone.
		if s.pos >= end || s.pos < h.start {
			s.leave()
			return Result{}, false
		}
		if s.pos == h.next {
			h.wake.Wait()
			continue
		}
		frame := h.ring[s.pos%uint64(len(h.ring))].frame
		if s.live {
			*h.readers(s.pos)--
			*h.readers(s.pos + 1)++
		}
		s.pos++
		if s.q < len(frame) {
			return frame[s.q], true
		}
	}
}

// leave releases the subscriber's seat. The caller holds h.mu.
func (s *Subscriber) leave() {
	if s.live {
		s.live = false
		s.h.subs--
		*s.h.readers(s.pos)--
	}
}

// Close unsubscribes: a blocked Next wakes, and Next returns the frames
// published before the close that the ring still holds, then false. Safe to
// call multiple times and concurrently with Next.
func (s *Subscriber) Close() {
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	s.end = min(s.end, s.h.next)
	s.leave()
	s.h.wake.Broadcast()
}
