package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"kspot/internal/serve"
)

// tracedResult is what the in-process traced pass measured.
type tracedResult struct {
	Layer metrics
	verdict
}

// driven is one in-process run of the daemon's epoch loop.
type driven struct {
	perEpoch   time.Duration    // mean loop iteration after the warm-up tenth
	events     map[int][][]byte // watched query → one marshalled serve.Result per epoch
	totals     totals           // the last epoch's CaptureStats
	deliveries int
	sseBytes   int64
	mallocs    uint64 // heap allocations after the warm-up tenth
	allocBytes uint64
	measured   int // epochs after the warm-up tenth
}

// drive posts the workload's live queries and runs the daemon's epoch loop
// for a fixed number of epochs: every cursor stepped and published in
// order, then CaptureStats — cmd/kspotd's loop body, with one subscriber
// per watcher marshalling events the way the /watch handler does.
func drive(ctx context.Context, p pipeline, tr *tracer, in *inputs, epochs int) (*driven, error) {
	if err := p.post(in.Primary); err != nil {
		return nil, err
	}
	for _, q := range in.Setup {
		if err := p.post(q); err != nil {
			return nil, err
		}
	}
	hubs := make([]*serve.Hub, in.W.Queries)
	for i := range hubs {
		hubs[i] = serve.NewHub(0)
	}
	d := &driven{events: map[int][][]byte{}, measured: epochs - epochs/10}

	// pubSpan/pubAt[q][e]: the publish span of watched query q at epoch e
	// and its start — the causal parent of the subscriber-side spans. The
	// hub's mutex orders the loop's write before the subscriber's read.
	pubSpan := map[int][]int32{}
	pubAt := map[int][]int64{}
	var mu sync.Mutex // guards d.events, d.deliveries, d.sseBytes across subscribers
	var wg sync.WaitGroup
	for _, q := range in.Watch {
		if _, ok := pubSpan[q]; !ok {
			pubSpan[q], pubAt[q] = make([]int32, epochs), make([]int64, epochs)
		}
		sub := hubs[q].Subscribe()
		keep := d.events[q] == nil // a query watched twice keeps one copy of its events
		if keep {
			d.events[q] = make([][]byte, 0, epochs)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, ok := sub.Next()
				if !ok {
					return
				}
				var t1 int64
				if tr != nil {
					t1 = tr.now()
				}
				data, err := json.Marshal(res)
				if err != nil {
					return
				}
				if tr != nil {
					t2 := tr.now()
					tr.add(spDeliver, pubSpan[q][res.Epoch], -1, pubAt[q][res.Epoch], t1)
					tr.add(spMarshal, pubSpan[q][res.Epoch], -1, t1, t2)
				}
				mu.Lock()
				d.deliveries++
				d.sseBytes += int64(len("data: ") + len(data) + len("\n\n"))
				if keep {
					d.events[q] = append(d.events[q], data)
				}
				mu.Unlock()
			}
		}()
	}

	var start time.Time
	var m0, m1 runtime.MemStats
	var err error
	for e := 0; e < epochs && err == nil; e++ {
		if err = ctx.Err(); err != nil {
			break
		}
		if e == epochs/10 {
			runtime.ReadMemStats(&m0)
			start = time.Now()
		}
		tr.setEpoch(uint32(e))
		root := tr.begin(spStep, -1)
		for i := range hubs {
			var res serve.Result
			if res, err = p.step(i, root); err != nil {
				err = fmt.Errorf("epoch %d query %d: %w", e, i, err)
				break
			}
			id := tr.begin(spPublish, root)
			if spans, ok := pubSpan[i]; ok && tr != nil {
				spans[e], pubAt[i][e] = id, tr.now()
			}
			hubs[i].Publish(res)
			tr.end(id)
		}
		if err == nil {
			d.totals, err = p.capture(root)
		}
		tr.end(root)
	}
	d.perEpoch = time.Since(start) / time.Duration(d.measured)
	runtime.ReadMemStats(&m1)
	d.mallocs, d.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for _, h := range hubs {
		h.Close()
	}
	wg.Wait()
	return d, err
}

// runTraced is the traced pass: the assembly with every seam decorated,
// the same assembly undecorated, and the public API, each driven through
// the same fixed number of epochs. The three must agree byte for byte on
// what the watched queries answer and exactly on the radio totals — the
// decorators change nothing and the assembly is the pipeline the daemon
// runs — and then the spans say where an epoch's time goes.
func runTraced(ctx context.Context, in *inputs, tmp, tracePath string, small bool) (*tracedResult, error) {
	w := in.W
	epochs := w.TracedEpochs
	if small {
		epochs = 200
	}
	res := &tracedResult{Layer: metrics{}}
	dataDir := func(name string) string {
		if !w.Durable {
			return ""
		}
		return filepath.Join(tmp, "traced-"+name)
	}
	build := func(tr *tracer, name string) (*assembly, error) {
		if w.Shards > 0 {
			return newRemote(in, tr, w.Shards)
		}
		return newLocal(in, tr, true, 0, dataDir(name))
	}

	// Spans per epoch: a sched, oracle and publish span per cursor plus a
	// handful per group and shard.
	tr := newTracer(max(w.Shards, 1), epochs*(3*w.Queries+16*max(w.Shards, 1)*w.SenseKeys+8))
	a, err := build(tr, "spans")
	if err != nil {
		return nil, err
	}
	traced, err := drive(ctx, a, tr, in, epochs)
	counts := a.counts(epochs)
	a.close()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}

	b, err := build(nil, "plain")
	if err != nil {
		return nil, err
	}
	plain, err := drive(ctx, b, nil, in, epochs)
	b.close()
	if err != nil {
		return nil, fmt.Errorf("undecorated run: %w", err)
	}

	pub, err := newPublic(in, w.Shards, dataDir("public"))
	if err != nil {
		return nil, err
	}
	public, err := drive(ctx, pub, nil, in, epochs)
	pub.close()
	if err != nil {
		return nil, fmt.Errorf("public-API run: %w", err)
	}

	res.Attempted += 3 * epochs * w.Queries
	res.same("undecorated run", traced, plain)
	res.same("public-API run", traced, public)
	for q, evs := range traced.events {
		for _, ev := range evs {
			if !bytes.Contains(ev, []byte(`"correct":true`)) {
				res.fail("traced run, query %d: %s", q, ev)
			}
		}
	}

	anatomy := tr.anatomy()
	if err := tr.writeTrace(tracePath, w.Name, anatomy, 20); err != nil {
		return nil, err
	}
	sum := summarize(anatomy, uint32(epochs/10))
	m := res.Layer
	m.set("engine.step_us", sum.root, sum.epochs)
	m.set("engine.sched_self_us", sum.self[spSched], 0)
	m.set("topk.acquire_self_us", sum.self[spAcquire], 0)
	m.set("engine.live_transport_us", sum.self[spLiveTransport], 0)
	m.set("sim.transport_us", sum.self[spSimTransport], 0)
	m.set("fed.merge_us", sum.self[spMerge], 0)
	m.set("topk.oracle_us", sum.self[spOracle], 0)
	m.set("storage.record_us", sum.self[spRecord], 0)
	m.set("serve.publish_us", sum.self[spPublish], 0)
	m.set("kspotd.capture_stats_us", sum.dur[spCapture], 0)
	m.set("wire.round_us", sum.round, 0)
	m.set("wire.shard_exec_us", sum.exec, 0)
	m.set("wire.overhead_us", sum.round-sum.exec, 0)
	m.set("wire.round_skew", sum.skew, 0)
	if n := sum.n[spDeliver]; n > 0 {
		m.set("serve.deliver_us", sum.dur[spDeliver]*float64(sum.epochs)/float64(n), n)
		m.set("kspotd.marshal_us", sum.dur[spMarshal]*float64(sum.epochs)/float64(n), n)
	}
	m.set("trace.unattributed_share", sum.self[spStep]/sum.root, 0)
	m.set("trace.overhead_share", float64(traced.perEpoch)/float64(plain.perEpoch)-1, 0)

	if w.Shards > 0 {
		// The wire servers build their substrate and operators themselves, so
		// the shard side of a round cannot be decorated from outside. The same
		// shards run here in-process on the same deterministic substrate, with
		// the decorators on: what a shard's execution is made of. Its answers
		// must be the wire run's.
		ltr := newTracer(w.Shards, epochs*(3*w.Queries+16*w.Shards*w.SenseKeys+8))
		l, err := newLocal(in, ltr, false, w.Shards, "")
		if err != nil {
			return nil, err
		}
		local, err := drive(ctx, l, ltr, in, epochs)
		samples := l.src.n.Load()
		sweeps := l.sweeps.Load()
		l.close()
		if err != nil {
			return nil, fmt.Errorf("in-process shard run: %w", err)
		}
		res.Attempted += epochs * w.Queries
		res.same("in-process shard run", traced, local)
		lsum := summarize(ltr.anatomy(), uint32(epochs/10))
		m.set("topk.acquire_self_us", lsum.plain[spAcquire]/float64(w.Shards), 0)
		m.set("sim.transport_us", lsum.plain[spSimTransport]/float64(w.Shards), 0)
		counts["trace.samples_per_epoch"] = float64(samples) / float64(epochs)
		counts["engine.sweeps_per_epoch"] = float64(sweeps) / float64(epochs)
	}

	for name, v := range counts {
		m.set(name, v, 0)
	}
	m.set("engine.allocs_per_epoch", float64(plain.mallocs)/float64(plain.measured), 0)
	m.set("engine.alloc_bytes_per_epoch", float64(plain.allocBytes)/float64(plain.measured), 0)
	m.set("serve.deliveries_per_epoch", float64(traced.deliveries)/float64(epochs), 0)
	m.set("kspotd.sse_bytes_per_epoch", float64(traced.sseBytes)/float64(epochs), 0)
	if w.Durable {
		ms, err := recoverMs(filepath.Join(dataDir("spans"), in.Scenario.ShardName(0)))
		if err != nil {
			return nil, err
		}
		m.set("storage.recover_ms", ms, 0)
	}
	if err := isolated(in, m); err != nil {
		return nil, err
	}
	return res, nil
}

// same requires run to have answered what ref answered, byte for byte, and
// to have put exactly as much on the radio.
func (r *tracedResult) same(name string, ref, run *driven) {
	for q, want := range ref.events {
		got := run.events[q]
		if len(got) != len(want) {
			r.fail("%s: query %d delivered %d events, traced run %d", name, q, len(got), len(want))
			continue
		}
		for e := range want {
			if !bytes.Equal(got[e], want[e]) {
				r.fail("%s: query %d epoch %d: %s, traced run %s", name, q, e, got[e], want[e])
			}
		}
	}
	a, b := ref.totals, run.totals
	if a.Messages != b.Messages || a.TxBytes != b.TxBytes || a.Drops != b.Drops ||
		math.Abs(a.EnergyUJ-b.EnergyUJ) > 1e-9*math.Abs(a.EnergyUJ) {
		r.fail("%s: radio totals %+v, traced run %+v", name, b, a)
	}
}

// counts are the traced run's exact per-epoch counts, read off the
// assembly once the loop has stopped.
func (a *assembly) counts(epochs int) map[string]float64 {
	if a.sched != nil {
		a.sched.Close() // waits out the presample of the epoch after the last
	}
	n := float64(epochs)
	out := map[string]float64{
		"engine.members": float64(len(a.cursors)),
	}
	if t, err := a.capture(-1); err == nil {
		out["radio.msgs_per_epoch"] = float64(t.Messages) / n
		out["radio.tx_bytes_per_epoch"] = float64(t.TxBytes) / n
		out["radio.drops_per_epoch"] = float64(t.Drops) / n
		out["energy.uj_per_epoch"] = t.EnergyUJ / n
	}
	f := a.fedStats.Snapshot()
	out["fed.coord_bytes_per_epoch"] = float64(f.TxBytes) / n
	out["fed.phase2_reqs_per_epoch"] = float64(f.Phase2Reqs) / n
	if a.remote() {
		out["engine.groups"] = float64(len(a.remoteKeys))
		var rounds, bytes, retries int64
		for _, cl := range a.clients {
			cm := cl.Metrics()
			rounds, bytes, retries = rounds+cm.Rounds, bytes+cm.BytesOut+cm.BytesIn, retries+cm.Retries
		}
		out["wire.rounds_per_epoch"] = float64(rounds) / n
		out["wire.bytes_per_epoch"] = float64(bytes) / n
		out["wire.retries"] = float64(retries)
		return out
	}
	out["engine.groups"] = float64(len(a.groupCaps))
	out["trace.samples_per_epoch"] = float64(a.src.n.Load()) / n
	out["engine.sweeps_per_epoch"] = float64(a.sweeps.Load()) / n
	for _, s := range a.stores {
		st := s.Stats()
		out["storage.bytes_per_epoch"] += float64(st.Bytes) / n
		out["storage.segments"] += float64(st.Segments)
	}
	return out
}

// anatomySummary is the per-epoch mean, in µs, of the epochs past the warm-up.
type anatomySummary struct {
	epochs            int
	root              float64
	self, dur, plain  [numSpanKinds]float64
	n                 [numSpanKinds]int // totals, not means
	round, exec, skew float64           // wire: mean over shards per epoch; slowest over mean
}

func summarize(anatomy []epochAnatomy, skip uint32) anatomySummary {
	var s anatomySummary
	for _, ea := range anatomy {
		if ea.epoch < skip {
			continue
		}
		s.epochs++
		s.root += ea.root
		for k := range ea.self {
			s.self[k] += ea.self[k]
			s.dur[k] += ea.dur[k]
			s.plain[k] += ea.plain[k]
			s.n[k] += ea.n[k]
		}
		if shards := float64(len(ea.round)); shards > 0 {
			var sum, slowest, exec float64
			for sh, d := range ea.round {
				sum += d
				slowest = max(slowest, d)
				exec += ea.exec[sh]
			}
			s.round += sum / shards
			s.exec += exec / shards
			s.skew += slowest / (sum / shards)
		}
	}
	n := float64(max(s.epochs, 1))
	s.skew /= n
	n *= 1e3 // spans are in ns
	s.root, s.round, s.exec = s.root/n, s.round/n, s.exec/n
	for k := range s.self {
		s.self[k], s.dur[k], s.plain[k] = s.self[k]/n, s.dur[k]/n, s.plain[k]/n
	}
	return s
}
