package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at. The spans are
// recorded from this package's decorators, around the calls into each
// layer; nothing inside the layers knows it is being traced.
type spanKind uint8

const (
	spStep          spanKind = iota // root: one iteration of the daemon's epoch loop
	spSched                         // Scheduler.Step / RemoteCoordinator.Step of one cursor
	spAcquire                       // EpochRunner.Epoch: one group's acquisition on one shard
	spLiveTransport                 // a Transport call on the live substrate
	spSimTransport                  // a Transport call on the deterministic substrate
	spMerge                         // MergeFunc: one member's coordinator-tier merge
	spOracle                        // ExactSnapshot + EqualAnswers of one cursor
	spRecord                        // ReadingsRecorder: the durable tier's tap
	spRound                         // RemoteRoundShard.EpochRound, client side
	spShardExec                     // request read → reply written on the server's socket
	spPublish                       // Hub.Publish
	spCapture                       // the loop's per-epoch CaptureStats
	spDeliver                       // async: Publish → Subscriber.Next returned
	spMarshal                       // async: json.Marshal(serve.Result) in the subscriber
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"engine.step", "engine.sched", "topk.acquire", "engine.live_transport", "sim.transport", "fed.merge",
	"topk.oracle", "storage.record", "wire.round", "wire.shard_exec", "serve.publish", "kspotd.capture_stats",
	"serve.deliver", "kspotd.marshal",
}

// async spans run on another goroutine, off the epoch loop's path: they
// have a causal parent but take no share of the loop's wall time.
func (k spanKind) async() bool { return k == spDeliver || k == spMarshal }

// span is one recorded interval. Times are nanoseconds since the tracer's
// base; Parent is the id (index) of the span that caused it, -1 for a root.
type span struct {
	Kind   spanKind
	Shard  int16
	Parent int32
	Epoch  uint32
	Start  int64
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing: the undecorated run drives the same code with tr == nil.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	epoch uint32
	spans []span

	// sched is the span of the cursor step in flight: the parent of what
	// the scheduler calls into (acquisitions, merges, the storage tap, wire
	// rounds). The loop sets it before stepping; the scheduler's own
	// goroutines read it.
	sched atomic.Int32
	// client[i] is the client-side span currently calling shard i over the
	// wire, the parent of the server-side exec span; -1 between calls.
	client []atomic.Int32
}

func newTracer(shards, capacity int) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, 0, capacity), client: make([]atomic.Int32, shards)}
	for i := range t.client {
		t.client[i].Store(-1)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) setEpoch(e uint32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.epoch = e
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(kind spanKind, parent int32) int32 {
	return t.beginShard(kind, parent, -1)
}

func (t *tracer) beginShard(kind spanKind, parent int32, shard int) int32 {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Kind: kind, Shard: int16(shard), Parent: parent, Epoch: t.epoch, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished span whose interval was timed by the caller.
func (t *tracer) add(kind spanKind, parent int32, shard int, start, end int64) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Kind: kind, Shard: int16(shard), Parent: parent, Epoch: t.spans[parent].Epoch, Start: start, End: end})
	t.mu.Unlock()
}

// epochAnatomy is one epoch's attribution: self[k] is the wall time of the
// root's interval that belongs to layer k.
type epochAnatomy struct {
	epoch uint32
	root  float64 // root span duration, ns
	self  [numSpanKinds]float64
	// Beside the wall shares, per kind: summed span durations, summed
	// "duration minus children's durations" (what a layer itself spent,
	// whoever else ran meanwhile), and span counts.
	dur   [numSpanKinds]float64
	plain [numSpanKinds]float64
	n     [numSpanKinds]int
	// Durations of the wire spans per shard: a round, and the server-side
	// exec inside it.
	round map[int16]float64
	exec  map[int16]float64
}

// anatomy attributes every epoch's wall time to the layers. A span's self
// time is the part of its share of the root interval that no child covers;
// where children run in parallel (two groups sweeping the live substrate,
// two shards answering a round) the covered time is split equally among
// the children active at that instant. Shares therefore sum, over all
// spans of an epoch, to the root's duration exactly: nothing is counted
// twice and nothing is hidden — the root's own self time is the
// unattributed remainder.
func (t *tracer) anatomy() []epochAnatomy {
	children := make([][]int32, len(t.spans))
	var roots []int32
	for i, s := range t.spans {
		switch {
		case s.Parent < 0:
			roots = append(roots, int32(i))
		default:
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make([]epochAnatomy, 0, len(roots))
	for _, r := range roots {
		root := t.spans[r]
		ea := epochAnatomy{epoch: root.Epoch, root: float64(root.End - root.Start), round: map[int16]float64{}, exec: map[int16]float64{}}
		t.share(r, []segment{{root.Start, root.End, 1}}, children, &ea)
		out = append(out, ea)
	}
	return out
}

// segment is a stretch of the root interval in which a span holds weight w
// of the wall clock.
type segment struct {
	from, to int64
	w        float64
}

func (t *tracer) share(id int32, segs []segment, children [][]int32, ea *epochAnatomy) {
	s := t.spans[id]
	dur := float64(s.End - s.Start)
	switch s.Kind {
	case spRound:
		ea.round[s.Shard] += dur
	case spShardExec:
		if t.spans[s.Parent].Kind == spRound {
			ea.exec[s.Shard] += dur
		}
	}
	ea.dur[s.Kind] += dur
	ea.plain[s.Kind] += dur
	ea.n[s.Kind]++
	var kids []int32
	for _, c := range children[id] {
		kid := t.spans[c]
		if kid.Kind.async() {
			ea.dur[kid.Kind] += float64(kid.End - kid.Start)
			ea.n[kid.Kind]++
			continue
		}
		ea.plain[s.Kind] -= float64(kid.End - kid.Start)
		kids = append(kids, c)
	}
	if len(kids) == 0 {
		for _, g := range segs {
			ea.self[s.Kind] += g.w * float64(g.to-g.from)
		}
		return
	}
	// Cut every segment at the children's boundaries; inside an elementary
	// piece the set of active children is constant.
	cuts := make([]int64, 0, 2*len(kids))
	for _, c := range kids {
		cuts = append(cuts, t.spans[c].Start, t.spans[c].End)
	}
	slices.Sort(cuts)
	kidSegs := make([][]segment, len(kids))
	for _, g := range segs {
		from := g.from
		piece := func(to int64) {
			if to <= from {
				return
			}
			var active []int
			for i, c := range kids {
				if t.spans[c].Start <= from && t.spans[c].End >= to {
					active = append(active, i)
				}
			}
			if len(active) == 0 {
				ea.self[s.Kind] += g.w * float64(to-from)
			}
			for _, i := range active {
				kidSegs[i] = append(kidSegs[i], segment{from, to, g.w / float64(len(active))})
			}
			from = to
		}
		for _, cut := range cuts {
			if cut > g.from && cut < g.to {
				piece(cut)
			}
		}
		piece(g.to)
	}
	for i, c := range kids {
		t.share(c, kidSegs[i], children, ea)
	}
}

// writeTrace saves the spans of the first keep epochs (name, start, end,
// parent, epoch id) plus every epoch's anatomy. The full span list of a
// long run is kept in memory only: at 400 spans an epoch it would be a
// few hundred megabytes of JSON.
func (t *tracer) writeTrace(path, workload string, anatomy []epochAnatomy, keep uint32) error {
	type jsonSpan struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Epoch  uint32 `json:"epoch"`
		Shard  int16  `json:"shard"` // -1: not a per-shard span
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Async  bool   `json:"async,omitempty"`
	}
	type jsonEpoch struct {
		Epoch  uint32             `json:"epoch"`
		RootNs float64            `json:"root_ns"`
		SelfNs map[string]float64 `json:"self_ns"`
	}
	doc := struct {
		Workload string      `json:"workload"`
		Spans    []jsonSpan  `json:"spans"`
		Epochs   []jsonEpoch `json:"epochs"`
	}{Workload: workload}
	for i, s := range t.spans {
		if s.Epoch < keep {
			doc.Spans = append(doc.Spans, jsonSpan{i, spanNames[s.Kind], s.Parent, s.Epoch, s.Shard, s.Start, s.End, s.Kind.async()})
		}
	}
	for _, ea := range anatomy {
		je := jsonEpoch{Epoch: ea.epoch, RootNs: ea.root, SelfNs: map[string]float64{}}
		for k, v := range ea.self {
			if v != 0 {
				je.SelfNs[spanNames[k]] = v
			}
		}
		doc.Epochs = append(doc.Epochs, je)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
