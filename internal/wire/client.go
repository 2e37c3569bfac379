package wire

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
)

// ClientConfig dials one shard server.
type ClientConfig struct {
	Addr string
	// Identity the handshake asserts (see Hello): the flat scenario name,
	// this shard's index, the deployment's shard count and the shard's
	// sensor node count. The server refuses a mismatch.
	Scenario string
	Shard    int
	Shards   int
	Nodes    int

	// Roster is the shard's sensor node ids, strictly ascending, exactly
	// Nodes of them — the positional frame of reference the epoch-round
	// encoding is relative to. Dial refuses a config without one.
	Roster []model.NodeID

	// DialTimeout bounds one connect attempt (default 5s). CallTimeout
	// bounds one request attempt awaiting its response (default 10s).
	// Retries is the number of re-attempts after the first per call
	// (default 4); Backoff is the initial retry sleep, doubling per
	// attempt (default 50ms).
	DialTimeout time.Duration
	CallTimeout time.Duration
	Retries     int
	Backoff     time.Duration
}

func (c *ClientConfig) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 5 * time.Second
}

func (c *ClientConfig) callTimeout() time.Duration {
	if c.CallTimeout > 0 {
		return c.CallTimeout
	}
	return 10 * time.Second
}

func (c *ClientConfig) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 4
}

func (c *ClientConfig) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 50 * time.Millisecond
}

// validate checks the roster against the identity the handshake asserts,
// before any connection is made: a missing, unsorted or duplicated roster
// would decode every epoch round against the wrong frame of reference.
func (c *ClientConfig) validate() error {
	if len(c.Roster) == 0 {
		return errors.New("ClientConfig.Roster is empty")
	}
	if len(c.Roster) != c.Nodes {
		return fmt.Errorf("ClientConfig.Roster has %d nodes, ClientConfig.Nodes is %d", len(c.Roster), c.Nodes)
	}
	for i := 1; i < len(c.Roster); i++ {
		if c.Roster[i] <= c.Roster[i-1] {
			return fmt.Errorf("ClientConfig.Roster is not strictly ascending at index %d (%d after %d)", i, c.Roster[i], c.Roster[i-1])
		}
	}
	return nil
}

// clientNonce distinguishes client sessions on the server's at-most-once
// layer: same nonce + same sequence = same request. Process-unique.
var clientNonce atomic.Uint64

func newNonce() uint64 {
	return uint64(os.Getpid())<<32 | clientNonce.Add(1)
}

// latRingCap bounds the latency sample ring backing the p50/p99 estimates.
const latRingCap = 512

// ClientMetrics is a snapshot of one shard connection's RTT and traffic
// accounting, surfaced through kspotd /stats and the System Panel's
// coordinator line.
type ClientMetrics struct {
	Shard     string `json:"shard"`
	Calls     int64  `json:"calls"`    // completed RPCs (any outcome)
	Rounds    int64  `json:"rounds"`   // epoch rounds (MsgEpochRound calls)
	Retries   int64  `json:"retries"`  // calls that needed >1 attempt
	BytesOut  int64  `json:"tx_bytes"` // frames written, headers included
	BytesIn   int64  `json:"rx_bytes"` // frames read, headers included
	P50Micros int64  `json:"p50_us"`   // median call latency
	P99Micros int64  `json:"p99_us"`   // tail call latency
}

// waiter is one in-flight call's slot in the demux table: the reader
// goroutine delivers the response frame matching its sequence here.
type waiter struct {
	ch chan Frame
}

func (w *waiter) deliver(f Frame) {
	select {
	case w.ch <- f:
	default: // a duplicate response; the buffered one wins
	}
}

// clientConn is one live connection: the socket, its write half (frames
// from concurrent calls interleave under writeMu) and a death signal the
// reader closes so every pending call learns of a broken socket at once.
type clientConn struct {
	conn net.Conn

	writeMu sync.Mutex
	wbuf    []byte

	once sync.Once
	dead chan struct{}
	err  error

	// lastRecv is the wall-clock nanos of the last frame read off this
	// conn — a liveness hint: a call that times out with nothing received
	// since its send treats the conn as gone and forces a redial.
	lastRecv atomic.Int64
}

func (cc *clientConn) fail(err error) {
	cc.once.Do(func() {
		cc.err = err
		close(cc.dead)
		cc.conn.Close()
	})
}

func (cc *clientConn) isDead() bool {
	select {
	case <-cc.dead:
		return true
	default:
		return false
	}
}

// Client is the coordinator's handle on one remote shard: the shard
// contract (the methods of shard.Shard a coordinator calls), one message
// exchange per call, answered on the far side by the shard body a Server
// wraps.
// Calls are synchronous for their caller but pipeline on the connection: a
// reader goroutine demultiplexes responses by sequence number to per-call
// waiters, so concurrent calls (epoch rounds, attaches, historic rounds)
// share one socket without queueing behind each other. Each call retries
// with backoff across timeouts and reconnects, reusing its sequence number
// so the server executes it at most once; the backoff sleeps only the
// retrying call. At most sendWindow sequences are in flight, so no call
// outlives the server's replay horizon. Close interrupts in-flight calls
// promptly. Stats and StorageStats make no call: every reply carries the
// shard's counters, and the client keeps the newest. The session's live
// attachments ride every handshake, so a reconnect to a restarted shard
// process re-attaches them.
type Client struct {
	cfg   ClientConfig
	nonce uint64

	attachMu sync.Mutex
	attached []AttachReq // live attachments in attach order: the Hello's list

	connMu   sync.Mutex // guards the fields below it up to dialMu
	cur      *clientConn
	closedCh chan struct{} // closed by Close, under connMu
	// name is the shard display name from the welcome. Reconnects re-derive
	// it.
	name string
	// row is the newest envelope read on rowConn: the connection's Welcome,
	// then any reply with a higher stamp.
	row     Envelope
	rowConn *clientConn
	// unreachable is the error of the most recently completed call if it
	// ended unreachable, nil if it got a reply.
	unreachable error
	dialMu      sync.Mutex // serializes reconnect attempts

	pendMu  sync.Mutex
	seq     uint64             // the next call's sequence
	pending map[uint64]*waiter // in-flight calls by sequence
	window  sync.Cond          // on pendMu: a call finished, or the client closed

	// retried counts calls that needed more than one attempt (tests
	// assert fault injection actually exercised the retry path).
	retried  atomic.Int64
	calls    atomic.Int64
	rounds   atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	latMu sync.Mutex
	lat   []int64 // µs ring, latRingCap entries once warm
	latN  int64   // total samples recorded
}

// sendWindow bounds the sequences in flight: a call may not take a
// sequence at or beyond the oldest in-flight one plus sendWindow. Half the
// server's replay horizon (replayCap, server.go), so a call in flight
// never sees its reply evicted or its sequence refused as stale.
const sendWindow = replayCap / 2

var errClosed = errors.New("wire: client is closed")

// Dial connects and handshakes with a shard server.
func Dial(cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("wire: shard %d at %s: %w", cfg.Shard, cfg.Addr, err)
	}
	c := &Client{
		cfg:      cfg,
		nonce:    newNonce(),
		seq:      1,
		closedCh: make(chan struct{}),
		pending:  make(map[uint64]*waiter),
	}
	c.window.L = &c.pendMu
	if _, err := c.getConn(); err != nil {
		return nil, fmt.Errorf("wire: shard %d at %s: %w", cfg.Shard, cfg.Addr, err)
	}
	return c, nil
}

// Name returns the shard's display name (from the handshake).
func (c *Client) Name() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.name
}

// Metrics snapshots the connection's RTT/traffic accounting.
func (c *Client) Metrics() ClientMetrics {
	m := ClientMetrics{
		Shard:    c.shardLabel(),
		Calls:    c.calls.Load(),
		Rounds:   c.rounds.Load(),
		Retries:  c.retried.Load(),
		BytesOut: c.bytesOut.Load(),
		BytesIn:  c.bytesIn.Load(),
	}
	c.latMu.Lock()
	samples := append([]int64(nil), c.lat...)
	c.latMu.Unlock()
	if len(samples) > 0 {
		slices.Sort(samples)
		m.P50Micros = samples[len(samples)/2]
		m.P99Micros = samples[(len(samples)*99)/100]
	}
	return m
}

func (c *Client) recordLatency(d time.Duration) {
	us := d.Microseconds()
	c.latMu.Lock()
	if len(c.lat) < latRingCap {
		c.lat = append(c.lat, us)
	} else {
		c.lat[c.latN%latRingCap] = us
	}
	c.latN++
	c.latMu.Unlock()
}

func (c *Client) isClosed() bool {
	select {
	case <-c.closedCh:
		return true
	default:
		return false
	}
}

// getConn returns the live connection, dialing and handshaking a fresh one
// if the current one is gone. Reconnects serialize on dialMu; calls that
// lose the race reuse the winner's connection.
func (c *Client) getConn() (*clientConn, error) {
	c.connMu.Lock()
	if c.isClosed() {
		c.connMu.Unlock()
		return nil, errClosed
	}
	cc := c.cur
	c.connMu.Unlock()
	if cc != nil && !cc.isDead() {
		return cc, nil
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.connMu.Lock()
	if c.isClosed() {
		c.connMu.Unlock()
		return nil, errClosed
	}
	cc = c.cur
	c.connMu.Unlock()
	if cc != nil && !cc.isDead() {
		return cc, nil
	}
	cc, w, err := c.handshake()
	if err != nil {
		return nil, err
	}
	c.connMu.Lock()
	if c.isClosed() {
		c.connMu.Unlock()
		cc.conn.Close()
		return nil, errClosed
	}
	// A new connection's row replaces the old one's whatever their stamps:
	// the shard behind it may have restarted, stamps and counters with it.
	c.cur, c.name, c.row, c.rowConn = cc, w.Name, w.Counters, cc
	c.connMu.Unlock()
	go c.readLoop(cc)
	return cc, nil
}

// handshake dials and runs the hello/welcome exchange synchronously (the
// demux reader starts only after the connection is admitted). The hello
// takes no sequence: it is never executed, so it has no place in the send
// window.
func (c *Client) handshake() (*clientConn, Welcome, error) {
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.dialTimeout())
	if err != nil {
		return nil, Welcome{}, err
	}
	c.attachMu.Lock()
	hello := AppendHello(nil, Hello{
		Version:     Version,
		Shard:       uint16(c.cfg.Shard),
		Shards:      uint16(c.cfg.Shards),
		Nodes:       uint16(c.cfg.Nodes),
		Nonce:       c.nonce,
		Scenario:    c.cfg.Scenario,
		Attachments: c.attached,
	})
	c.attachMu.Unlock()
	var wbuf []byte
	conn.SetDeadline(time.Now().Add(c.cfg.callTimeout()))
	if err := WriteFrame(conn, &wbuf, Frame{Type: MsgHello, Payload: hello}); err != nil {
		conn.Close()
		return nil, Welcome{}, err
	}
	f, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, Welcome{}, err
	}
	if f.Type == MsgError {
		conn.Close()
		return nil, Welcome{}, fmt.Errorf("%s", f.Payload)
	}
	if f.Type != MsgWelcome {
		conn.Close()
		return nil, Welcome{}, fmt.Errorf("handshake reply %v", f.Type)
	}
	w, err := DecodeWelcome(f.Payload)
	if err != nil {
		conn.Close()
		return nil, Welcome{}, err
	}
	if int(w.Shard) != c.cfg.Shard || int(w.Nodes) != c.cfg.Nodes {
		conn.Close()
		return nil, Welcome{}, fmt.Errorf("welcome identity shard=%d nodes=%d, want shard=%d nodes=%d", w.Shard, w.Nodes, c.cfg.Shard, c.cfg.Nodes)
	}
	conn.SetDeadline(time.Time{})
	return &clientConn{conn: conn, dead: make(chan struct{})}, w, nil
}

// readLoop is the connection's demux reader: every response frame routes
// to the pending call with its sequence number, its envelope stripped and
// kept if it is the connection's newest. Frames with no pending waiter
// (responses to earlier attempts whose call already completed) bring their
// envelope and are otherwise discarded — at-most-once execution on the
// server makes that safe. A read error or a malformed envelope marks the
// connection dead, waking every pending call.
func (c *Client) readLoop(cc *clientConn) {
	for {
		f, err := ReadFrame(cc.conn)
		if err != nil {
			cc.fail(err)
			c.clearConn(cc)
			return
		}
		cc.lastRecv.Store(time.Now().UnixNano())
		c.bytesIn.Add(int64(frameHeaderSize + len(f.Payload)))
		c.pendMu.Lock()
		w := c.pending[f.Seq]
		c.pendMu.Unlock()
		env, body, err := DecodeEnvelope(f.Payload)
		if err != nil {
			cc.fail(err)
			c.clearConn(cc)
			return
		}
		c.keep(cc, env)
		if w == nil {
			continue
		}
		f.Payload = body
		w.deliver(f)
	}
}

// keep holds env if it is newer than the row held from the same
// connection. A replay keeps its original stamp, so a late one never
// displaces a newer row; an envelope read on a connection a reconnect has
// already replaced is dropped.
func (c *Client) keep(cc *clientConn, env Envelope) {
	c.connMu.Lock()
	if c.rowConn == cc && env.Stamp > c.row.Stamp {
		c.row = env
	}
	c.connMu.Unlock()
}

// clearConn forgets cc as the current connection (the next call redials).
func (c *Client) clearConn(cc *clientConn) {
	c.connMu.Lock()
	if c.cur == cc {
		c.cur = nil
	}
	c.connMu.Unlock()
}

// sleep waits d out unless the client closes first.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closedCh:
		return false
	}
}

// call performs one at-most-once RPC: take a sequence inside the send
// window, register a response waiter, then retry (same sequence) across
// timeouts and connection drops until a response lands or attempts run
// out. Retry backoff sleeps only this call —
// concurrent calls keep flowing on the shared connection. An application
// error (MsgError) is a definitive response and is not retried.
func (c *Client) call(t MsgType, payload []byte) (Frame, error) {
	c.calls.Add(1)
	if t == MsgEpochRound {
		c.rounds.Add(1)
	}
	seq, w, err := c.begin()
	if err != nil {
		return Frame{}, err
	}
	defer c.end(seq)
	start := time.Now()
	backoff := c.cfg.backoff()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// The reader delivers a reply before it marks its connection
			// dead, so an attempt, the last one too, can fail with its
			// reply waiting: a shard that replied and then died has
			// answered. Take it rather than retry or give up.
			select {
			case f := <-w.ch:
				return c.answer(f, start)
			default:
			}
			if attempt > c.cfg.retries() {
				break
			}
			c.retried.Add(1)
			if !c.sleep(backoff) {
				return Frame{}, errClosed
			}
			backoff *= 2
		}
		if c.isClosed() {
			return Frame{}, errClosed
		}
		cc, err := c.getConn()
		if err != nil {
			lastErr = err
			continue
		}
		sentAt := time.Now()
		if err := c.send(cc, Frame{Seq: seq, Type: t, Payload: payload}); err != nil {
			lastErr = err
			cc.fail(err)
			c.clearConn(cc)
			continue
		}
		timer := time.NewTimer(c.cfg.callTimeout())
		select {
		case f := <-w.ch:
			timer.Stop()
			return c.answer(f, start)
		case <-cc.dead:
			timer.Stop()
			lastErr = cc.err
		case <-timer.C:
			lastErr = fmt.Errorf("wire: %v call timed out after %v", t, c.cfg.callTimeout())
			if cc.lastRecv.Load() < sentAt.UnixNano() {
				// Nothing has arrived since we sent: the socket itself is
				// suspect, not just this response. Redial on retry.
				cc.fail(errors.New("wire: connection silent past call timeout"))
				c.clearConn(cc)
			}
		}
	}
	err = fmt.Errorf("wire: shard %s unreachable after %d attempts: %w", c.shardLabel(), c.cfg.retries()+1, lastErr)
	c.settle(err)
	return Frame{}, err
}

// answer settles a call on its reply: an application error (MsgError)
// becomes the call's error.
func (c *Client) answer(f Frame, start time.Time) (Frame, error) {
	c.recordLatency(time.Since(start))
	c.settle(nil)
	if f.Type == MsgError {
		return Frame{}, fmt.Errorf("wire: shard %s: %s", c.shardLabel(), f.Payload)
	}
	return f, nil
}

// begin takes the call's sequence and registers its waiter, inside the
// send window: while the next sequence is at or beyond the oldest
// in-flight one plus sendWindow, the caller waits for a call to finish, or
// for Close.
func (c *Client) begin() (uint64, *waiter, error) {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	for {
		oldest := c.seq
		for seq := range c.pending {
			oldest = min(oldest, seq)
		}
		if c.seq < oldest+sendWindow {
			break
		}
		if c.isClosed() {
			return 0, nil, errClosed
		}
		c.window.Wait()
	}
	seq, w := c.seq, &waiter{ch: make(chan Frame, 1)}
	c.seq++
	c.pending[seq] = w
	return seq, w, nil
}

// end retires a call from the window.
func (c *Client) end(seq uint64) {
	c.pendMu.Lock()
	delete(c.pending, seq)
	c.window.Broadcast()
	c.pendMu.Unlock()
}

// settle records how the most recently completed call ended: nil if it got
// a reply, its error if it ended unreachable (see Stats).
func (c *Client) settle(err error) {
	c.connMu.Lock()
	c.unreachable = err
	c.connMu.Unlock()
}

func (c *Client) shardLabel() string {
	if name := c.Name(); name != "" {
		return name
	}
	return fmt.Sprintf("%d at %s", c.cfg.Shard, c.cfg.Addr)
}

// send writes the request frame.
func (c *Client) send(cc *clientConn, f Frame) error {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	cc.conn.SetWriteDeadline(time.Now().Add(c.cfg.callTimeout()))
	if err := WriteFrame(cc.conn, &cc.wbuf, f); err != nil {
		return err
	}
	c.bytesOut.Add(int64(frameHeaderSize + len(f.Payload)))
	return nil
}

// Attach plans and attaches a query on the shard under an id. The query
// joins the session's attachments before the request is sent, so a
// reconnect while it is in flight re-attaches it on a restarted shard; a
// failed attach leaves them again.
func (c *Client) Attach(queryID uint32, algo, sql string) error {
	req := AttachReq{Query: queryID, Algo: algo, SQL: sql}
	c.attachMu.Lock()
	c.attached = append(c.attached, req)
	c.attachMu.Unlock()
	f, err := c.call(MsgAttach, AppendAttach(nil, req))
	if err == nil && f.Type != MsgAttached {
		err = fmt.Errorf("wire: attach reply %v", f.Type)
	}
	if err != nil {
		c.forget(queryID)
	}
	return err
}

// forget drops a query from the session's attachments.
func (c *Client) forget(queryID uint32) {
	c.attachMu.Lock()
	defer c.attachMu.Unlock()
	c.attached = slices.DeleteFunc(c.attached, func(a AttachReq) bool { return a.Query == queryID })
}

// Detach releases an attached query on the shard: its operator and views
// are dropped, and it leaves the session's attachments before the request
// is sent, so no later handshake re-attaches it. Sent when the query's
// acquisition group dissolves or is widened onto a new id.
func (c *Client) Detach(queryID uint32) error {
	c.forget(queryID)
	f, err := c.call(MsgDetach, AppendU32(nil, queryID))
	if err != nil {
		return err
	}
	if f.Type != MsgDetached {
		return fmt.Errorf("wire: detach reply %v", f.Type)
	}
	return nil
}

// EpochRound implements engine.RemoteShard: sense the epoch and run every
// group's acquisition in one round trip.
func (c *Client) EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []engine.RemoteGroupResult, error) {
	rep, err := c.epochRound(e, queries)
	if err != nil {
		return nil, nil, err
	}
	results := make([]engine.RemoteGroupResult, len(rep.Groups))
	for i, g := range rep.Groups {
		if g.Err != "" {
			// Same shape a whole-call MsgError takes.
			results[i].Err = fmt.Errorf("wire: shard %s: %s", c.shardLabel(), g.Err)
			continue
		}
		results[i].Acq = engine.RemoteAcquisition{Answers: g.Answers, Readings: g.Override}
	}
	return rep.Readings, results, nil
}

// epochRound is the round's exchange and its checks: a decoded reply for
// this epoch carrying one result per group.
func (c *Client) epochRound(e model.Epoch, queries []uint32) (EpochRoundReply, error) {
	f, err := c.call(MsgEpochRound, AppendEpochRound(nil, EpochRoundReq{Epoch: e, Queries: queries}))
	if err != nil {
		return EpochRoundReply{}, err
	}
	if f.Type != MsgEpochRoundReply {
		return EpochRoundReply{}, fmt.Errorf("wire: epoch-round reply %v", f.Type)
	}
	rep, err := DecodeEpochRoundReply(f.Payload, c.cfg.Roster)
	if err != nil {
		return EpochRoundReply{}, err
	}
	if rep.Epoch != e {
		return EpochRoundReply{}, fmt.Errorf("wire: epoch-round reply for epoch %d, want %d", rep.Epoch, e)
	}
	if len(rep.Groups) != len(queries) {
		return EpochRoundReply{}, fmt.Errorf("wire: epoch-round reply carries %d groups, want %d", len(rep.Groups), len(queries))
	}
	return rep, nil
}

// Snapshot streams the shard's durable state image — a storage snapshot
// image: the store's last epoch records plus a node record of per-node
// energy at the cursor — in bounded chunks.
// The server pins the image on the first chunk, so the result is
// consistent even while epochs keep committing.
func (c *Client) Snapshot() ([]byte, error) {
	var img []byte
	for {
		f, err := c.call(MsgSnapshot, AppendU32(nil, uint32(len(img))))
		if err != nil {
			return nil, err
		}
		if f.Type != MsgSnapshotChunk {
			return nil, fmt.Errorf("wire: snapshot reply %v", f.Type)
		}
		ch, err := DecodeChunk(f.Payload)
		if err != nil {
			return nil, err
		}
		if int(ch.Offset) != len(img) {
			return nil, fmt.Errorf("wire: snapshot chunk at %d, want %d", ch.Offset, len(img))
		}
		if len(ch.Data) == 0 {
			return nil, fmt.Errorf("wire: empty snapshot chunk at %d of %d", ch.Offset, ch.Total)
		}
		img = append(img, ch.Data...)
		if uint32(len(img)) == ch.Total {
			return img, nil
		}
	}
}

// Restore streams a state image into the shard in bounded chunks; the
// server applies it atomically when the final byte arrives.
func (c *Client) Restore(img []byte) error {
	total := uint32(len(img))
	off := 0
	for {
		end := off + SnapshotChunkSize
		if end > len(img) {
			end = len(img)
		}
		f, err := c.call(MsgRestore, AppendChunk(nil, Chunk{Total: total, Offset: uint32(off), Data: img[off:end]}))
		if err != nil {
			return err
		}
		if f.Type != MsgRestored {
			return fmt.Errorf("wire: restore reply %v", f.Type)
		}
		rep, err := DecodeRestored(f.Payload)
		if err != nil {
			return err
		}
		off = end
		if off == len(img) {
			if !rep.Applied {
				return fmt.Errorf("wire: restore not applied after %d bytes", rep.Received)
			}
			return nil
		}
	}
}

// StorageStats returns the shard's durable-tier storage block (log files,
// bytes on disk, last checkpointed epoch, first persistence failure) from
// the newest reply; it makes no call (see Stats).
func (c *Client) StorageStats() (storage.StoreStats, error) {
	env, err := c.held()
	return env.Storage, err
}

// Stats returns the shard's traffic/energy counters from the newest reply
// on the current connection — its Welcome, or any later reply with a
// higher stamp — and makes no call. It fails only once the client is
// closed, or while the most recently completed call ended unreachable (that
// call's error): a dead shard's last row is not passed off as current.
func (c *Client) Stats() (stats.RunStats, error) {
	env, err := c.held()
	return env.Row, err
}

// held returns the newest envelope, its row labelled with the shard's name
// and its per-kind map the caller's own.
func (c *Client) held() (Envelope, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.isClosed() {
		return Envelope{}, errClosed
	}
	if c.unreachable != nil {
		return Envelope{}, c.unreachable
	}
	env := c.row
	env.Row.Algorithm, env.Row.PerKind = c.name, maps.Clone(env.Row.PerKind)
	return env, nil
}

// Close ends the session: best-effort goodbye, then the connection drops.
// In-flight calls are interrupted promptly (the socket is closed under
// them, the reader broadcasts the death) and return errors; the reader
// goroutine exits. Safe to call more than once.
func (c *Client) Close() error {
	c.connMu.Lock()
	if c.isClosed() {
		c.connMu.Unlock()
		return nil
	}
	close(c.closedCh)
	cc := c.cur
	c.cur = nil
	c.connMu.Unlock()
	c.pendMu.Lock()
	c.window.Broadcast() // callers waiting for the window see closedCh
	c.pendMu.Unlock()
	if cc != nil {
		// Goodbye on the raw connection without touching the write mutex:
		// Close must not wait behind a sender it is supposed to interrupt.
		var wbuf []byte
		cc.conn.SetDeadline(time.Now().Add(100 * time.Millisecond))
		WriteFrame(cc.conn, &wbuf, Frame{Seq: ^uint64(0), Type: MsgClose, Payload: nil})
		cc.fail(errClosed)
	}
	return nil
}

// HistoricTopK has the shard buffer its windows under exec and run the
// historic operator over them at the given ranking size and aggregate,
// returning the ranked answers and its buffered-node count.
func (c *Client) HistoricTopK(exec uint32, algo string, q topk.HistoricQuery) ([]model.Answer, int, error) {
	payload := AppendHistoric(nil, HistoricReq{Exec: exec, K: q.K, Window: q.Window, Agg: q.Agg, Algo: algo})
	f, err := c.call(MsgHistoric, payload)
	if err != nil {
		return nil, 0, err
	}
	if f.Type != MsgTopK {
		return nil, 0, fmt.Errorf("wire: historic reply %v", f.Type)
	}
	got, nodes, answers, err := DecodeTopK(f.Payload)
	if err != nil {
		return nil, 0, err
	}
	if got != exec {
		return nil, 0, fmt.Errorf("wire: historic reply for execution %d, want %d", got, exec)
	}
	return answers, nodes, nil
}

// FetchSums is the phase-2 targeted sweep over an execution's cached
// windows.
func (c *Client) FetchSums(exec uint32, ids []model.GroupID) (map[model.GroupID]int64, error) {
	f, err := c.call(MsgFetch, AppendFetch(nil, exec, ids))
	if err != nil {
		return nil, err
	}
	if f.Type != MsgSums {
		return nil, fmt.Errorf("wire: fetch reply %v", f.Type)
	}
	got, sums, err := DecodeSums(f.Payload)
	if err != nil {
		return nil, err
	}
	if got != exec {
		return nil, fmt.Errorf("wire: fetch reply for execution %d, want %d", got, exec)
	}
	return sums, nil
}

// Release drops the execution's cached windows on the shard.
func (c *Client) Release(exec uint32) error {
	_, err := c.call(MsgRelease, AppendU32(nil, exec))
	return err
}
