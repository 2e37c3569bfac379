package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kspot/internal/model"
	"kspot/internal/trace"
)

// Deployment is an in-process shard: one network (possibly behind recorder
// taps) paired with the trace source its sensors sample and the
// acquisition runners attached to it. It
// implements the shard contract's epoch half (RemoteShard) directly — the
// Scheduler drives it with the same EpochRound a wire client answers over
// a socket, and a shard server answers its MsgEpochRound by calling it
// (internal/shard assembles one and answers the rest of the contract). A
// flat system is a single Deployment; a federated system is N shards merged
// by the Scheduler.
//
// Every shard of a federated system shares the trace source built from
// the *flat* scenario — sampling is a pure function of (node, epoch), and
// node ids are globally unique across shards, so the sharded field senses
// exactly the world the flat field senses. That invariant is the root of
// the federation layer's identical-answer guarantee.
type Deployment struct {
	name string
	tp   Transport
	src  trace.Source

	// parallel is the substrate's Parallel bound, read once: above one a
	// round acquires its groups concurrently, at most parallel at a time,
	// and presamples the next epoch in the background; at one or below it
	// runs everything on the caller's goroutine, in request order.
	parallel int

	mu       sync.Mutex // guards attached and pre; never held across a round
	attached map[uint32]attachment
	pre      *presample // in-flight background sampling of the next epoch
}

// attachment is one acquisition group's runner on this shard, with the
// query-local source its per-node inputs derive from (nil: the epoch's
// shared sensing).
type attachment struct {
	op  EpochRunner
	src trace.Source
}

// presample is an in-flight background sampling of the next epoch: the
// shard launches it once an epoch's acquisitions (all transport work) have
// finished, so it overlaps the merge stage and, for a served shard, the
// reply's way back. The accounting the synchronous path would have done at
// sampling time is deferred to CommitSenseEpoch when the epoch is actually
// consumed — keeping ledgers, budgets and histories byte-identical to the
// unpipelined run.
type presample struct {
	epoch    model.Epoch
	done     chan struct{}
	readings map[model.NodeID]model.Reading
}

// NewDeployment binds a transport and its trace source under a display
// name (the shard name in panels and stats).
func NewDeployment(name string, tp Transport, src trace.Source) *Deployment {
	d := &Deployment{name: name, tp: tp, src: src, attached: make(map[uint32]attachment)}
	if p, ok := Baseof(tp).(interface{ Parallel() int }); ok {
		d.parallel = p.Parallel()
	}
	return d
}

// Name returns the deployment's display name.
func (d *Deployment) Name() string { return d.name }

// Transport returns the deployment's substrate (behind its fault
// decorators, when armed).
func (d *Deployment) Transport() Transport { return d.tp }

// Attach registers an acquisition runner (an operator already attached to
// this deployment's transport) under the query id epoch rounds name it by.
// src, when non-nil, overrides the per-node readings for this query only
// (node-local window aggregation); sensing is still charged once per
// epoch, against the deployment's own source.
func (d *Deployment) Attach(query uint32, op EpochRunner, src trace.Source) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attached[query] = attachment{op: op, src: src}
}

// Detach forgets an attached runner; its views are simply abandoned.
func (d *Deployment) Detach(query uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.attached, query)
}

// Holds reports whether a runner is attached under query.
func (d *Deployment) Holds(query uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.attached[query]
	return ok
}

// Attached reports how many runners are attached.
func (d *Deployment) Attached() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.attached)
}

// Drain waits out an in-flight background presample and discards it (its
// charges were never committed), so the transport can be torn down safely
// afterwards.
func (d *Deployment) Drain() {
	d.mu.Lock()
	pre := d.pre
	d.pre = nil
	d.mu.Unlock()
	if pre != nil {
		<-pre.done
	}
}

// EpochRound implements RemoteShard: one whole epoch of this shard. The
// epoch is sensed once — a pipelined presample for exactly this epoch is
// consumed, anything else resampled — and committed (idle charge,
// dead-node drop, sensing charge, history record); then every listed
// query's runner acquires over the committed readings, or over readings
// derived from them without charging when the query has its own source.
// Derivation is over the sensed node set, not the transport's aliveness at
// acquire time: an earlier acquisition of this epoch may already have
// fired churn flips, and a shared epoch's queries must see the node set an
// independent run would. Rounds of one deployment must not overlap; the
// Scheduler and the shard server each serialize theirs.
//
// Above a Parallel bound of one the acquisitions run concurrently, at most
// that many at a time, the caller's goroutine among them — the network
// takes any number of in-flight sweeps and floods. At one or below they run
// in request order on the caller's goroutine. A query's failure is carried
// in its own result; the sensing and the other queries stand.
func (d *Deployment) EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []RemoteGroupResult, error) {
	d.mu.Lock()
	pre := d.pre
	d.pre = nil
	atts := make([]attachment, len(queries))
	for i, q := range queries {
		atts[i] = d.attached[q]
	}
	d.mu.Unlock()

	var readings map[model.NodeID]model.Reading
	if pre != nil {
		<-pre.done
		if pre.epoch == e {
			readings = pre.readings
		}
	}
	if readings == nil {
		readings = PresampleEpoch(d.tp, d.src, e)
	}
	CommitSenseEpoch(d.tp, e, readings)

	results := make([]RemoteGroupResult, len(queries))
	acquire := func(i int) {
		a := atts[i]
		if a.op == nil {
			results[i].Err = fmt.Errorf("engine: query %d not attached", queries[i])
			return
		}
		in := readings
		if a.src != nil {
			in = DeriveReadings(readings, a.src, e)
			results[i].Acq.Readings = in
		}
		results[i].Acq.Answers, results[i].Err = a.op.Epoch(e, in)
	}
	// The caller is one of the workers: it takes queries off the same
	// counter as the helpers it starts, so a round with one worker runs in
	// request order on this goroutine and starts none.
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
			acquire(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(d.parallel, len(queries)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()

	// All transport work for epoch e is done: above a bound of one, overlap
	// the next epoch's sampling with whatever the caller does with this one.
	if d.parallel > 1 {
		next := &presample{epoch: e + 1, done: make(chan struct{})}
		d.mu.Lock()
		d.pre = next
		d.mu.Unlock()
		go func() {
			next.readings = PresampleEpoch(d.tp, d.src, e+1)
			close(next.done)
		}()
	}
	return readings, results, nil
}
