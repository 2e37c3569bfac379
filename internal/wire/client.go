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

// Client is the coordinator's handle on one remote shard: the shard
// contract (the methods of shard.Shard a coordinator calls), one message
// exchange per call, answered on the far side by the shard body a Server
// wraps.
// One call is in flight at a time: a call holds the client's turn from its
// first send to its answer, retries and backoff included, writes its frame
// and reads the replies itself. So the server never receives a sequence
// below one it has already executed for a live call, and its one-slot
// replay cache answers every retry. Each call retries with backoff across
// timeouts and reconnects, reusing its sequence number so the server
// executes it at most once. Close interrupts the call in flight and
// releases queued callers promptly. Stats and StorageStats make no call:
// every reply carries the shard's counters, and the client keeps the
// newest. The session's live attachments ride every handshake, so a
// reconnect to a restarted shard process re-attaches them.
type Client struct {
	cfg   ClientConfig
	nonce uint64

	attachMu sync.Mutex
	attached []AttachReq // live attachments in attach order: the Hello's list

	// turn is the call lock, a channel so a queued caller also wakes on
	// Close. It guards seq and wbuf, and only its holder dials.
	turn chan struct{}
	seq  uint64 // the next call's sequence
	wbuf []byte

	connMu   sync.Mutex    // guards the fields below; never held across I/O
	cur      net.Conn      // the live connection; nil until the next call dials
	closedCh chan struct{} // closed by Close, under connMu
	// name is the shard display name from the welcome. Reconnects re-derive
	// it.
	name string
	// row is the newest envelope read on cur: the connection's Welcome,
	// then any reply with a higher stamp.
	row Envelope
	// unreachable is the error of the most recently completed call if it
	// ended unreachable, nil if it got a reply.
	unreachable error

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

var errClosed = errors.New("wire: client is closed")

// Dial connects and handshakes with a shard server.
func Dial(cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("wire: shard %d at %s: %w", cfg.Shard, cfg.Addr, err)
	}
	c := &Client{
		cfg:      cfg,
		nonce:    newNonce(),
		turn:     make(chan struct{}, 1),
		seq:      1,
		closedCh: make(chan struct{}),
	}
	if _, _, err := c.getConn(); err != nil {
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
// if the last attempt dropped it, and whether it was kept from an earlier
// call. Its caller holds the turn (or is Dial).
func (c *Client) getConn() (conn net.Conn, kept bool, err error) {
	c.connMu.Lock()
	conn, closed := c.cur, c.isClosed()
	c.connMu.Unlock()
	if closed {
		return nil, false, errClosed
	}
	if conn != nil {
		return conn, true, nil
	}
	conn, w, err := c.handshake()
	if err != nil {
		return nil, false, err
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.isClosed() {
		conn.Close()
		return nil, false, errClosed
	}
	// A new connection's row replaces the old one's whatever their stamps:
	// the shard behind it may have restarted, stamps and counters with it.
	c.cur, c.name, c.row = conn, w.Name, w.Counters
	return conn, false, nil
}

// handshake dials and runs the hello/welcome exchange. The hello takes no
// sequence: it is never executed.
func (c *Client) handshake() (net.Conn, Welcome, error) {
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
	return conn, w, nil
}

// drop closes conn after a failed attempt and forgets it as the live
// connection, so the next attempt redials.
func (c *Client) drop(conn net.Conn) {
	conn.Close()
	c.connMu.Lock()
	if c.cur == conn {
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

// call performs one at-most-once RPC: wait for the turn, take the next
// sequence, then retry it with backoff across timeouts and connection drops
// until its reply lands or attempts run out. An application error
// (MsgError) is a definitive reply and is not retried.
func (c *Client) call(t MsgType, payload []byte) (Frame, error) {
	c.calls.Add(1)
	if t == MsgEpochRound {
		c.rounds.Add(1)
	}
	select {
	case c.turn <- struct{}{}:
	case <-c.closedCh:
		return Frame{}, errClosed
	}
	defer func() { <-c.turn }()
	req := Frame{Seq: c.seq, Type: t, Payload: payload}
	c.seq++
	start := time.Now()
	backoff := c.cfg.backoff()
	var err error
	for attempt := 0; attempt <= c.cfg.retries(); attempt++ {
		if attempt > 0 {
			c.retried.Add(1)
			if !c.sleep(backoff) {
				return Frame{}, errClosed
			}
			backoff *= 2
		}
		var f Frame
		if f, err = c.attempt(req); err == nil {
			c.recordLatency(time.Since(start))
			c.settle(nil)
			if f.Type == MsgError {
				return Frame{}, fmt.Errorf("wire: shard %s: %s", c.shardLabel(), f.Payload)
			}
			return f, nil
		}
		if c.isClosed() {
			return Frame{}, errClosed
		}
	}
	err = fmt.Errorf("wire: shard %s unreachable after %d attempts: %w", c.shardLabel(), c.cfg.retries()+1, err)
	c.settle(err)
	return Frame{}, err
}

// attempt sends req on the live connection and reads its reply. A failed
// attempt drops the connection. Only a call reads the socket, so a shard
// that closed a connection between calls is found by the next call on it:
// if a kept connection fails other than by timing out, the attempt redials
// once, at once, rather than spend a retry and a backoff on it.
func (c *Client) attempt(req Frame) (Frame, error) {
	conn, kept, err := c.getConn()
	if err != nil {
		return Frame{}, err
	}
	f, err := c.exchange(conn, req)
	if err != nil {
		c.drop(conn)
		if kept && !errors.Is(err, os.ErrDeadlineExceeded) && !c.isClosed() {
			return c.attempt(req) // a fresh connection: no second redial
		}
	}
	return f, err
}

// exchange writes req on conn and reads frames until the one for its
// sequence, all within one call timeout. A frame for an older sequence —
// the late reply to a call that already ended — is skipped, but its
// envelope is kept like any other.
func (c *Client) exchange(conn net.Conn, req Frame) (Frame, error) {
	conn.SetDeadline(time.Now().Add(c.cfg.callTimeout()))
	if err := WriteFrame(conn, &c.wbuf, req); err != nil {
		return Frame{}, err
	}
	c.bytesOut.Add(int64(frameHeaderSize + len(req.Payload)))
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return Frame{}, err
		}
		c.bytesIn.Add(int64(frameHeaderSize + len(f.Payload)))
		env, body, err := DecodeEnvelope(f.Payload)
		if err != nil {
			return Frame{}, err
		}
		c.keep(env)
		if f.Seq == req.Seq {
			f.Payload = body
			return f, nil
		}
	}
}

// keep holds env if it is newer than the row held from the live
// connection. A replay keeps its original stamp, so a late one never
// displaces a newer row.
func (c *Client) keep(env Envelope) {
	c.connMu.Lock()
	if env.Stamp > c.row.Stamp {
		c.row = env
	}
	c.connMu.Unlock()
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
// The call in flight is interrupted promptly (the socket is closed under
// it) and callers queued for the turn are released; both return errors.
// Safe to call more than once.
func (c *Client) Close() error {
	c.connMu.Lock()
	if c.isClosed() {
		c.connMu.Unlock()
		return nil
	}
	close(c.closedCh)
	conn := c.cur
	c.cur = nil
	c.connMu.Unlock()
	if conn != nil {
		// Goodbye without the turn: Close must not wait behind the call it
		// is supposed to interrupt.
		var wbuf []byte
		conn.SetDeadline(time.Now().Add(100 * time.Millisecond))
		WriteFrame(conn, &wbuf, Frame{Seq: ^uint64(0), Type: MsgClose, Payload: nil})
		conn.Close()
	}
	return nil
}

// HistoricTopK has the shard buffer its windows and run the historic
// operator over them at the given ranking size and aggregate, returning
// the ranked answers and its buffered-node count. It ships K capped at the
// window — a ranking past the window ranks the same instants — so any K
// fits the request's 16 bits.
func (c *Client) HistoricTopK(algo string, q topk.HistoricQuery) ([]model.Answer, int, error) {
	payload := AppendHistoric(nil, HistoricReq{K: min(q.K, q.Window), Window: q.Window, Agg: q.Agg, Algo: algo})
	f, err := c.call(MsgHistoric, payload)
	if err != nil {
		return nil, 0, err
	}
	if f.Type != MsgTopK {
		return nil, 0, fmt.Errorf("wire: historic reply %v", f.Type)
	}
	nodes, answers, err := DecodeTopK(f.Payload)
	return answers, nodes, err
}

// FetchSums is the phase-2 targeted sweep over the given instants of the
// shard's windows.
func (c *Client) FetchSums(window int, ids []model.GroupID) (map[model.GroupID]int64, error) {
	f, err := c.call(MsgFetch, AppendFetch(nil, window, ids))
	if err != nil {
		return nil, err
	}
	if f.Type != MsgSums {
		return nil, fmt.Errorf("wire: fetch reply %v", f.Type)
	}
	return DecodeSums(f.Payload)
}
