package main

import (
	"net"
	"sync/atomic"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/trace"
	"kspot/internal/wire"
)

// The span decorators: one per seam of the pipeline. Each forwards to the
// layer it wraps and records a span around the call; none changes what the
// call does (the traced run must answer byte-identically to the
// undecorated one, and its radio totals must be equal).

// spanTransport is the Transport an operator is attached to in a traced
// run. It wraps the shard's substrate per operator, so its spans can name
// the acquisition that caused them: parent is the enclosing spanRunner's
// current span.
type spanTransport struct {
	engine.Transport
	tr     *tracer
	kind   spanKind // spLiveTransport or spSimTransport
	shard  int
	parent *atomic.Int32
	sweeps *atomic.Int64
}

var (
	_ engine.Unwrapper        = (*spanTransport)(nil)
	_ engine.ReadingsRecorder = (*spanTransport)(nil)
)

// Unwrap lets engine.Baseof find the substrate below the decorator.
func (t *spanTransport) Unwrap() engine.Transport { return t.Transport }

// RecordReadings forwards history buffering, the way the fault injector
// does, so a wrapped live deployment keeps filling its windows.
func (t *spanTransport) RecordReadings(e model.Epoch, readings map[model.NodeID]model.Reading) {
	if r, ok := t.Transport.(engine.ReadingsRecorder); ok {
		r.RecordReadings(e, readings)
	}
}

func (t *spanTransport) span() int32 { return t.tr.beginShard(t.kind, t.parent.Load(), t.shard) }

func (t *spanTransport) SendUp(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	defer t.tr.end(t.span())
	return t.Transport.SendUp(from, kind, e, payload)
}

func (t *spanTransport) SendDown(from, to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	defer t.tr.end(t.span())
	return t.Transport.SendDown(from, to, kind, e, payload)
}

func (t *spanTransport) BroadcastDown(kind radio.MsgKind, e model.Epoch, payloadFor func(child model.NodeID) []byte) map[model.NodeID]bool {
	defer t.tr.end(t.span())
	return t.Transport.BroadcastDown(kind, e, payloadFor)
}

func (t *spanTransport) RouteToSink(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	defer t.tr.end(t.span())
	return t.Transport.RouteToSink(from, kind, e, payload)
}

func (t *spanTransport) RouteFromSink(to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	defer t.tr.end(t.span())
	return t.Transport.RouteFromSink(to, kind, e, payload)
}

func (t *spanTransport) Sweep(e model.Epoch, kind radio.MsgKind, readings map[model.NodeID]model.Reading, prune engine.PruneFunc) *model.View {
	t.sweeps.Add(1)
	defer t.tr.end(t.span())
	return t.Transport.Sweep(e, kind, readings, prune)
}

// spanRunner wraps one group's operator on one shard.
type spanRunner struct {
	engine.EpochRunner
	tr    *tracer
	shard int
	cur   atomic.Int32 // the acquisition in flight: parent of its transport's spans
}

func (r *spanRunner) Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error) {
	id := r.tr.beginShard(spAcquire, r.tr.sched.Load(), r.shard)
	r.cur.Store(id)
	defer r.tr.end(id)
	return r.EpochRunner.Epoch(e, readings)
}

// spanRecorder wraps the durable tier's tap on the sense commit.
type spanRecorder struct {
	engine.ReadingsRecorder
	tr *tracer
}

func (r spanRecorder) RecordReadings(e model.Epoch, readings map[model.NodeID]model.Reading) {
	defer r.tr.end(r.tr.begin(spRecord, r.tr.sched.Load()))
	r.ReadingsRecorder.RecordReadings(e, readings)
}

// spanMerge wraps one member's coordinator-tier merge.
func spanMerge(tr *tracer, merge engine.MergeFunc) engine.MergeFunc {
	if tr == nil || merge == nil {
		return merge
	}
	return func(shardAnswers [][]model.Answer) ([]model.Answer, error) {
		defer tr.end(tr.begin(spMerge, tr.sched.Load()))
		return merge(shardAnswers)
	}
}

// countingSource counts Source.Sample calls. Sampling runs on the
// scheduler's background presample goroutine, overlapped with the previous
// epoch, so it is counted here and timed in isolation (trace.sample_ns,
// engine.sense_us) rather than given spans.
type countingSource struct {
	trace.Source
	n atomic.Int64
}

func (s *countingSource) Sample(node model.NodeID, e model.Epoch) model.Value {
	s.n.Add(1)
	return s.Source.Sample(node, e)
}

// spanRoundShard wraps a shard's wire client on the coordinator side.
type spanRoundShard struct {
	*wire.Client
	tr    *tracer
	shard int
}

var _ engine.RemoteRoundShard = (*spanRoundShard)(nil)

func (s *spanRoundShard) EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []engine.RemoteGroupResult, error) {
	id := s.tr.beginShard(spRound, s.tr.sched.Load(), s.shard)
	s.tr.client[s.shard].Store(id)
	defer func() {
		s.tr.client[s.shard].Store(-1)
		s.tr.end(id)
	}()
	return s.Client.EpochRound(e, queries)
}

// spanListener hands the in-process wire server connections that time its
// side of every exchange: from the read that completed a request to the
// write of its reply. That interval is the shard's execution (dispatch,
// sense, sweeps, reply encoding) as the socket sees it.
type spanListener struct {
	net.Listener
	tr    *tracer
	shard int
}

func (l spanListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spanConn{Conn: conn, tr: l.tr, shard: l.shard}, nil
}

// spanConn is used by the server's one handler goroutine per connection,
// which alternates reads and writes; lastRead needs no lock.
type spanConn struct {
	net.Conn
	tr       *tracer
	shard    int
	lastRead int64
	caller   int32 // the client-side span waiting on the request just read
}

// Read notes the caller while it is certainly still waiting: by the time
// the reply's Write returns, the client may already have moved on.
func (c *spanConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead, c.caller = c.tr.now(), c.tr.client[c.shard].Load()
	return n, err
}

func (c *spanConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.add(spShardExec, c.caller, c.shard, c.lastRead, c.tr.now())
	return n, err
}
