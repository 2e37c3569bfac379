package serve

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"kspot/internal/model"
)

func res(e int) Result {
	return Result{Epoch: model.Epoch(e), Answers: []model.Answer{{Group: model.GroupID(e), Score: model.Value(e)}}, Correct: true}
}

// Every subscriber sees the identical per-epoch sequence, regardless of
// when it joined (within cache capacity) or how slowly it consumes.
func TestHubFanOutIdenticalSequences(t *testing.T) {
	h := NewHub(16)
	early := h.Subscribe()
	for e := 0; e < 5; e++ {
		h.Publish(res(e))
	}
	late := h.Subscribe() // replays the cache
	for e := 5; e < 10; e++ {
		h.Publish(res(e))
	}
	h.Close()

	drain := func(s *Subscriber) []Result {
		var out []Result
		for {
			r, ok := s.Next()
			if !ok {
				return out
			}
			out = append(out, r)
		}
	}
	a, b := drain(early), drain(late)
	if len(a) != 10 {
		t.Fatalf("early subscriber got %d results, want 10", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("subscribers diverged:\nearly: %v\nlate:  %v", a, b)
	}
	for e, r := range a {
		if r.Epoch != model.Epoch(e) {
			t.Fatalf("result %d has epoch %d", e, r.Epoch)
		}
	}
}

// A blocked Next wakes on publish and on close; concurrent subscribers
// each get every result exactly once.
func TestHubConcurrentSubscribers(t *testing.T) {
	h := NewHub(0)
	const subs, results = 8, 50
	var wg sync.WaitGroup
	got := make([][]Result, subs)
	for i := 0; i < subs; i++ {
		s := h.Subscribe()
		wg.Add(1)
		go func(i int, s *Subscriber) {
			defer wg.Done()
			for {
				r, ok := s.Next()
				if !ok {
					return
				}
				got[i] = append(got[i], r)
			}
		}(i, s)
	}
	for e := 0; e < results; e++ {
		h.Publish(res(e))
	}
	h.Close()
	wg.Wait()
	for i := 1; i < subs; i++ {
		if !reflect.DeepEqual(got[0], got[i]) {
			t.Fatalf("subscriber %d diverged from subscriber 0", i)
		}
	}
	if len(got[0]) != results {
		t.Fatalf("got %d results, want %d", len(got[0]), results)
	}
}

// The replay cache is bounded: a very late subscriber sees only the last
// cap results, still in order.
func TestHubCacheBound(t *testing.T) {
	h := NewHub(4)
	for e := 0; e < 10; e++ {
		h.Publish(res(e))
	}
	s := h.Subscribe()
	h.Close()
	var epochs []model.Epoch
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		epochs = append(epochs, r.Epoch)
	}
	want := []model.Epoch{6, 7, 8, 9}
	if !reflect.DeepEqual(epochs, want) {
		t.Fatalf("late subscriber replayed %v, want %v", epochs, want)
	}
}

// Closing a subscriber mid-stream never deadlocks the hub or other
// subscribers, and a subscriber of a closed hub still drains the cache.
func TestHubCloseSemantics(t *testing.T) {
	h := NewHub(8)
	s1, s2 := h.Subscribe(), h.Subscribe()
	h.Publish(res(0))
	s1.Close()
	s1.Close() // idempotent
	h.Publish(res(1))
	if r, ok := s2.Next(); !ok || r.Epoch != 0 {
		t.Fatalf("s2 first = %v %v", r, ok)
	}
	if r, ok := s2.Next(); !ok || r.Epoch != 1 {
		t.Fatalf("s2 second = %v %v", r, ok)
	}
	// s1 drains what it queued before closing, then ends.
	if r, ok := s1.Next(); !ok || r.Epoch != 0 {
		t.Fatalf("closed s1 did not drain its queue: %v %v", r, ok)
	}
	if _, ok := s1.Next(); ok {
		t.Fatal("closed s1 kept streaming")
	}
	h.Close()
	post := h.Subscribe()
	if r, ok := post.Next(); !ok || r.Epoch != 0 {
		t.Fatalf("post-close subscriber lost the cache: %v %v", r, ok)
	}
	if r, ok := post.Next(); !ok || r.Epoch != 1 {
		t.Fatalf("post-close subscriber lost the cache: %v %v", r, ok)
	}
	if _, ok := post.Next(); ok {
		t.Fatal("post-close subscriber kept streaming")
	}
	if h.Subscribers() != 0 {
		t.Fatalf("closed hub reports %d subscribers", h.Subscribers())
	}
}

// drainN reads n results from s and fails unless their epochs run from
// first on, gapless.
func drainN(t *testing.T, s *Subscriber, first, n int) {
	t.Helper()
	for e := first; e < first+n; e++ {
		r, ok := s.Next()
		if !ok || r.Epoch != model.Epoch(e) {
			t.Fatalf("read %v ok=%v, want epoch %d", r.Epoch, ok, e)
		}
	}
}

// A subscriber that stalls for 10⁴ epochs loses nothing: the ring grows
// while it lags, it then drains every epoch in order, and once it has
// caught up the ring is back to the replay window and the heap to where it
// was.
func TestHubStalledSubscriberDrainsLossless(t *testing.T) {
	const stall = 10000
	h := NewHub(0)
	for e := 0; e < 2*h.window; e++ {
		h.Publish(res(e))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := h.Watch(0) // replays the window: epochs window .. 2·window-1
	for e := 2 * h.window; e < 2*h.window+stall; e++ {
		h.Publish(res(e))
	}
	if len(h.ring) < stall {
		t.Fatalf("ring holds %d frames with a subscriber %d behind", len(h.ring), stall)
	}
	drainN(t, s, h.window, h.window+stall)
	h.Publish(res(2*h.window + stall))
	drainN(t, s, 2*h.window+stall, 1)
	if len(h.ring) != h.window {
		t.Fatalf("ring holds %d slots after the subscriber caught up, want %d", len(h.ring), h.window)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Fatalf("heap grew %d bytes over a stall the subscriber recovered from", grew)
	}
	runtime.KeepAlive(s)
}

// frame builds one epoch frame of width queries, slot q scored q.
func frame(e, width int) []Result {
	f := make([]Result, width)
	for q := range f {
		f[q] = Result{Epoch: model.Epoch(e), Answers: []model.Answer{{Group: model.GroupID(q), Score: model.Value(q)}}}
	}
	return f
}

// A query added mid-stream widens the frame: its watcher replays only the
// epochs from the query's first frame on, while query 0's replays the
// whole window.
func TestHubQueryAddedMidStream(t *testing.T) {
	h := NewHub(0)
	for e := 0; e < 10; e++ {
		h.Publish(frame(e, 1)...)
	}
	for e := 10; e < 20; e++ {
		h.Publish(frame(e, 2)...)
	}
	added, old := h.Watch(1), h.Watch(0)
	h.Publish(frame(20, 2)...)
	h.Close()
	drainN(t, added, 10, 11)
	drainN(t, old, 0, 21)
	for _, s := range []*Subscriber{added, old} {
		if r, ok := s.Next(); ok {
			t.Fatalf("stream kept going after close: %v", r)
		}
	}
}

// End(q) ends q's streams at the current epoch — its watchers drain up to
// it and stop, a later watcher replays only that far — while the other
// queries keep streaming.
func TestHubEndStopsOneQuery(t *testing.T) {
	h := NewHub(0)
	keep, ended := h.Watch(0), h.Watch(1)
	for e := 0; e < 3; e++ {
		h.Publish(frame(e, 2)...)
	}
	h.End(1)
	for e := 3; e < 6; e++ {
		h.Publish(frame(e, 2)...)
	}
	h.End(1) // the first end stands
	late := h.Watch(1)
	for _, s := range []*Subscriber{ended, late} {
		drainN(t, s, 0, 3)
		if r, ok := s.Next(); ok {
			t.Fatalf("ended query streamed %v", r)
		}
	}
	drainN(t, keep, 0, 6)
	h.Publish(frame(6, 2)...)
	drainN(t, keep, 6, 1)
	if n := h.Subscribers(); n != 1 {
		t.Fatalf("%d live subscribers, want 1 (the ended query's drained)", n)
	}
}

// After a lagging subscriber has grown the ring, a late subscriber still
// replays only the last window of frames.
func TestHubReplayWindowAfterGrowth(t *testing.T) {
	h := NewHub(4)
	lagging := h.Watch(0)
	for e := 0; e < 20; e++ {
		h.Publish(res(e))
	}
	if len(h.ring) <= 4 {
		t.Fatalf("ring did not grow behind a lagging subscriber: %d slots", len(h.ring))
	}
	late := h.Watch(0)
	h.Close()
	drainN(t, late, 16, 4)
	if r, ok := late.Next(); ok {
		t.Fatalf("late subscriber replayed past the window: %v", r)
	}
	drainN(t, lagging, 0, 20)
}

// Watch, Subscriber.Close, Publish and Close run concurrently (run with
// -race): every stream a subscriber reads is gapless and in order, and
// every stream ends.
func TestHubConcurrentWatchPublishClose(t *testing.T) {
	h := NewHub(8)
	const watchers, rounds, width = 4, 50, 3
	var wg sync.WaitGroup
	for w := 0; w < watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := h.Watch((w + i) % width)
				last := -1
				for j := 0; j < i%5; j++ {
					r, ok := s.Next()
					if !ok {
						break
					}
					if last >= 0 && int(r.Epoch) != last+1 {
						t.Errorf("watcher %d read epoch %d after %d", w, r.Epoch, last)
					}
					last = int(r.Epoch)
				}
				s.Close()
				for {
					if _, ok := s.Next(); !ok {
						break
					}
				}
			}
		}(w)
	}
	stream := h.Watch(0)
	halfway := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for e := 0; e < 2000; e++ {
			if e == 1000 {
				close(halfway)
			}
			h.Publish(frame(e, width)...)
		}
	}()
	go func() {
		defer wg.Done()
		<-halfway
		h.Close()
	}()
	last := -1
	for {
		r, ok := stream.Next()
		if !ok {
			break
		}
		if last >= 0 && int(r.Epoch) != last+1 {
			t.Fatalf("read epoch %d after %d", r.Epoch, last)
		}
		last = int(r.Epoch)
	}
	wg.Wait()
	if n := h.Subscribers(); n != 0 {
		t.Fatalf("closed hub reports %d subscribers", n)
	}
}

// Publishing a 128-query frame allocates nothing in steady state, with no
// subscriber and with eight that keep up.
func TestHubPublishAllocs(t *testing.T) {
	f := frame(0, 128)
	for _, subs := range []int{0, 8} {
		h := NewHub(0)
		var ss []*Subscriber
		for i := 0; i < subs; i++ {
			ss = append(ss, h.Watch(i*16))
		}
		epoch := func() {
			h.Publish(f...)
			for _, s := range ss {
				if _, ok := s.Next(); !ok {
					t.Fatal("stream ended")
				}
			}
		}
		for i := 0; i < 2*h.window; i++ {
			epoch()
		}
		if a := testing.AllocsPerRun(1000, epoch); a != 0 {
			t.Errorf("publish with %d subscribers: %v allocs per epoch, want 0", subs, a)
		}
	}
}

// The ring shrinks back only once every live subscriber is within half a
// window of the head, so one hovering near a window behind does not resize
// it every few epochs.
func TestHubShrinkSlack(t *testing.T) {
	h := NewHub(8)
	s := h.Watch(0)
	for e := 0; e < 12; e++ {
		h.Publish(res(e))
	}
	drainN(t, s, 0, 6)
	h.Publish(res(12)) // 7 frames unread: more than half a window
	if len(h.ring) == 8 {
		t.Fatal("ring shrank with a subscriber 7 frames behind")
	}
	drainN(t, s, 6, 4)
	h.Publish(res(13)) // 4 frames unread
	if len(h.ring) != 8 {
		t.Fatalf("ring holds %d slots with every subscriber within half a window", len(h.ring))
	}
	drainN(t, s, 10, 4)
}
