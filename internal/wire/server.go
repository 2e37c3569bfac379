package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"kspot/internal/config"
	"kspot/internal/shard"
	"kspot/internal/sim"
	"kspot/internal/storage"
	"kspot/internal/topk"
)

// ServerConfig opens one shard of a federated scenario behind a socket.
type ServerConfig struct {
	// Scenario is the FLAT scenario (with its shards block). The server
	// deploys only its own shard's sub-scenario, but samples the trace
	// source built from the flat scenario — the federation invariant that
	// roots the identical-answer guarantee (see engine.Deployment).
	Scenario *config.Scenario
	// Shard is this server's shard index into the scenario's shard list.
	Shard int
	// Parallel bounds the shard's sweep workers and concurrent acquisitions
	// (kspot.WithParallel); 0/1 is the exact sequential walk on one
	// goroutine.
	Parallel int
	// DataDir, when non-empty, persists the shard across process deaths:
	// its one file, shard.log, holds the last epochs' records and, after
	// each call that spends energy, a node record of the ledger, so a kill
	// -9'd kspotd -serve-shard restarted on the same directory resumes its
	// history, cursor and ledger (the reconnecting coordinator's hello
	// re-attaches its queries). Empty keeps the memory backend — the
	// default, byte-identical to the pre-durability server.
	DataDir string
}

// Server puts one shard body (shard.Shard — the body an in-process System
// drives directly) behind the framed protocol: the kspotd -serve-shard
// process. What lives here is what is about the socket: the handshake, the
// at-most-once replay cache, snapshot chunking and, with a data dir, the
// ledger's node record after each call that spends energy; every request
// is decode → body → encode. It expects a single logical
// coordinator; requests are serialized (the shard substrate is one state
// machine) and executed at most once per sequence number — a reconnecting
// coordinator resuming a session replays cached responses instead of
// re-running sweeps.
type Server struct {
	cfg  ServerConfig
	body *shard.Shard

	store *storage.Store

	mu         sync.Mutex
	nonce      uint64
	stamp      uint64 // calls executed: the stamp on every reply's envelope
	lastSeq    uint64 // the session's newest executed sequence
	lastReply  []byte // its reply frame: the bytes every write of the reply sends
	payload    []byte // scratch the executing call encodes its reply payload into
	snapState  []byte // pinned snapshot image being served in chunks
	restoreBuf []byte // restore image being assembled from chunks

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a shard server: the durable tier opened (and recovered)
// here, the shard itself assembled by the constructor an in-process Open
// assembles it with (shard.New: same per-shard fault seeds, same arming,
// same tap), so fault scenarios replay identically in-process and over the
// wire.
func NewServer(cfg ServerConfig) (*Server, error) {
	store, err := storage.OpenStore(cfg.DataDir, storage.DefaultStoreWindow)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		store: store,
		conns: make(map[net.Conn]bool),
	}
	s.body, err = shard.New(shard.Config{
		Scenario: cfg.Scenario,
		Shard:    cfg.Shard,
		Parallel: cfg.Parallel,
		Store:    store,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	// The store keeps the ledger from the start, so a restore before the
	// first epoch is rewritten with it too.
	s.recordLedger()
	return s, nil
}

// Name returns the shard's display name.
func (s *Server) Name() string { return s.body.Name() }

// Network exposes the shard's simulated network (tests reconcile its
// counters against the coordinator's fetched stats).
func (s *Server) Network() *sim.Network { return s.body.Network() }

// Serve accepts coordinator connections on ln until Close. Each
// connection must open with a handshake; requests across all connections
// serialize on the shard's single state machine.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return fmt.Errorf("wire: server closed")
	}
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops accepting, closes every connection, waits the handlers out
// and tears the shard substrate down. Safe to call more than once.
func (s *Server) Close() {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	s.body.Close()
}

// serveConn runs one connection: handshake, then the request loop.
func (s *Server) serveConn(conn net.Conn) {
	var wbuf []byte
	f, err := ReadFrame(conn)
	if err != nil {
		return
	}
	if f.Type != MsgHello {
		WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgError, Payload: []byte("wire: expected hello")})
		return
	}
	hello, err := DecodeHello(f.Payload)
	if err != nil {
		WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgError, Payload: []byte(err.Error())})
		return
	}
	if err := s.checkHello(hello); err != nil {
		WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgError, Payload: []byte(err.Error())})
		return
	}
	s.mu.Lock()
	if hello.Nonce != s.nonce {
		// A new coordinator session — or a restarted process, whose nonce
		// is 0: reset the at-most-once state and the shard's session scope
		// (shard.Reset: the attachments; a historic execution keeps nothing
		// between its calls). The durable tier, the field's energy and its
		// counters persist.
		s.nonce = hello.Nonce
		s.lastSeq, s.lastReply = 0, nil
		s.snapState = nil
		s.restoreBuf = nil
		s.body.Reset()
	}
	// The session's live attachments: shard.Attach attaches each id the
	// shard does not hold and keeps a held one's operator. One the shard
	// refuses stays out without failing the handshake: the attach call it
	// came from, still in flight, gets the refusal as its reply, and an
	// epoch round naming it reports it not attached.
	for _, a := range hello.Attachments {
		s.body.Attach(a.Query, a.Algo, a.SQL)
	}
	welcome := AppendWelcome(nil, Welcome{
		Version:  Version,
		Shard:    uint16(s.cfg.Shard),
		Nodes:    uint16(len(s.body.Roster())),
		Name:     s.body.Name(),
		Counters: s.envelope(),
	})
	s.mu.Unlock()
	if err := WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgWelcome, Payload: welcome}); err != nil {
		return
	}
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return
		}
		reply, close := s.dispatch(hello.Nonce, f)
		if _, err := conn.Write(reply); err != nil {
			return
		}
		if close {
			return
		}
	}
}

// checkHello verifies the coordinator dialed the deployment it thinks it
// dialed: scenario name, shard index and count, node count (DecodeHello
// already refused a skewed protocol version). A mismatch fails the
// handshake instead of corrupting epochs.
func (s *Server) checkHello(h Hello) error {
	if h.Scenario != s.cfg.Scenario.Name {
		return fmt.Errorf("wire: scenario %q, server deploys %q", h.Scenario, s.cfg.Scenario.Name)
	}
	if int(h.Shard) != s.cfg.Shard {
		return fmt.Errorf("wire: shard %d, server serves shard %d", h.Shard, s.cfg.Shard)
	}
	if int(h.Shards) != len(s.cfg.Scenario.Shards) && !(h.Shards == 1 && len(s.cfg.Scenario.Shards) == 0) {
		return fmt.Errorf("wire: %d shards, server's scenario has %d", h.Shards, len(s.cfg.Scenario.Shards))
	}
	if nodes := len(s.body.Roster()); int(h.Nodes) != nodes {
		return fmt.Errorf("wire: %d nodes, server's shard deploys %d", h.Nodes, nodes)
	}
	return nil
}

// dispatch executes one request frame at most once. The client has one
// call in flight and sends its sequences in ascending order, so the
// session's last sequence and its reply are the whole replay cache: that
// sequence again (a retried or duplicated frame, which must not re-run a
// sweep or re-charge sensing) replays the cached reply; a lower one — a
// late frame of a call that already ended — is refused, since running it
// could be a re-execution or run it after a later call; a higher one
// executes and takes the slot.
//
// The reply is returned encoded, and the connection writes exactly those
// bytes: a reply is framed once, and a replay writes the cached frame as it
// stands — with the envelope, and so the stamp, it was framed with. Cached
// bytes are never modified once stored — a replay of the same sequence may
// be mid-write on another connection.
//
// A frame on a connection whose hello carried an older session's nonce —
// say a closing client's goodbye, read after its successor's hello — is
// refused and its connection closed: it must neither run against the new
// session's state nor take its slot.
func (s *Server) dispatch(nonce uint64, f Frame) (reply []byte, close bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nonce != s.nonce {
		return s.reply(f.Seq, MsgError, []byte("wire: session ended")), true
	}
	if f.Seq == s.lastSeq && s.lastReply != nil {
		return s.lastReply, MsgType(s.lastReply[frameHeaderSize-1]) == MsgClosed
	}
	if f.Seq <= s.lastSeq {
		return s.reply(f.Seq, MsgError, []byte("wire: stale sequence")), false
	}
	t, payload, err := s.handle(f, s.payload[:0])
	if err != nil {
		t, payload = MsgError, append(s.payload[:0], err.Error()...)
	}
	s.payload = payload
	s.stamp++
	s.lastSeq, s.lastReply = f.Seq, s.reply(f.Seq, t, payload)
	return s.lastReply, t == MsgClosed
}

// envelope reads the shard's counters under s.mu, stamped with the calls
// executed so far. The body's Stats and StorageStats cannot fail.
func (s *Server) envelope() Envelope {
	row, _ := s.body.Stats()
	block, _ := s.body.StorageStats()
	return Envelope{Stamp: s.stamp, Storage: block, Row: row}
}

// reply frames one reply under s.mu: the envelope, then the payload.
func (s *Server) reply(seq uint64, t MsgType, payload []byte) []byte {
	return appendReply(seq, t, s.envelope(), payload)
}

// appendReply frames a reply in one new buffer — the frame header, the
// envelope, the payload — and patches the length prefix at the end.
func appendReply(seq uint64, t MsgType, env Envelope, payload []byte) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+envelopeMaxSize(env)+len(payload))
	b = append(AppendEnvelope(b, env), payload...)
	binary.LittleEndian.PutUint32(b[0:], uint32(len(b)-4))
	binary.LittleEndian.PutUint64(b[4:], seq)
	b[frameHeaderSize-1] = byte(t)
	return b
}

// handle executes one request under s.mu: decode, the body's call, encode
// — the reply's payload appended to dst.
func (s *Server) handle(f Frame, dst []byte) (MsgType, []byte, error) {
	switch f.Type {
	case MsgAttach:
		req, err := DecodeAttach(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		if err := s.body.Attach(req.Query, req.Algo, req.SQL); err != nil {
			return 0, nil, err
		}
		return MsgAttached, AppendU32(dst, req.Query), nil

	case MsgDetach:
		qid, err := DecodeU32(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		s.body.Detach(qid)
		return MsgDetached, AppendU32(dst, qid), nil

	case MsgEpochRound:
		req, err := DecodeEpochRound(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		readings, results, err := s.body.EpochRound(req.Epoch, req.Queries)
		s.recordLedger()
		if err != nil {
			return 0, nil, err
		}
		rep := EpochRoundReply{Epoch: req.Epoch, Readings: readings, Groups: make([]RoundGroup, len(results))}
		for i, r := range results {
			if r.Err != nil {
				rep.Groups[i].Err = r.Err.Error()
			} else {
				rep.Groups[i].Answers, rep.Groups[i].Override = r.Acq.Answers, r.Acq.Readings
			}
		}
		payload, err := AppendEpochRoundReply(dst, s.body.Roster(), rep)
		if err != nil {
			return 0, nil, err
		}
		return MsgEpochRoundReply, payload, nil

	case MsgHistoric:
		req, err := DecodeHistoric(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		answers, nodes, err := s.body.HistoricTopK(req.Algo, topk.HistoricQuery{K: req.K, Agg: req.Agg, Window: req.Window})
		s.recordLedger()
		if err != nil {
			return 0, nil, err
		}
		return MsgTopK, AppendTopK(dst, nodes, answers), nil

	case MsgFetch:
		window, ids, err := DecodeFetch(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		sums, err := s.body.FetchSums(window, ids)
		s.recordLedger()
		if err != nil {
			return 0, nil, err
		}
		return MsgSums, AppendSums(dst, sums), nil

	case MsgSnapshot:
		off, err := DecodeU32(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		if off == 0 {
			// Pin a consistent image: later chunks slice this encoding even
			// if epochs keep committing between requests.
			if s.snapState, err = s.body.Snapshot(); err != nil {
				return 0, nil, err
			}
		}
		if s.snapState == nil {
			return 0, nil, fmt.Errorf("wire: snapshot chunk %d without a pinned image", off)
		}
		img := s.snapState
		if int(off) >= len(img) {
			return 0, nil, fmt.Errorf("wire: snapshot offset %d beyond image of %d bytes", off, len(img))
		}
		end := int(off) + SnapshotChunkSize
		if end > len(img) {
			end = len(img)
		}
		payload := AppendChunk(dst, Chunk{Total: uint32(len(img)), Offset: off, Data: img[off:end]})
		if end == len(img) {
			// Final byte served: drop the pin. A retry of this chunk replays
			// from the at-most-once cache, never from the image.
			s.snapState = nil
		}
		return MsgSnapshotChunk, payload, nil

	case MsgRestore:
		req, err := DecodeChunk(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		if req.Offset == 0 {
			s.restoreBuf = s.restoreBuf[:0]
		}
		if int(req.Offset) != len(s.restoreBuf) {
			return 0, nil, fmt.Errorf("wire: restore chunk at %d, have %d bytes", req.Offset, len(s.restoreBuf))
		}
		s.restoreBuf = append(s.restoreBuf, req.Data...)
		rep := RestoredReply{Received: uint32(len(s.restoreBuf))}
		if uint32(len(s.restoreBuf)) == req.Total {
			img := s.restoreBuf
			s.restoreBuf = nil
			if err := s.body.Restore(img); err != nil {
				return 0, nil, err
			}
			rep.Applied = true
		}
		return MsgRestored, AppendRestored(dst, rep), nil

	case MsgClose:
		return MsgClosed, dst, nil

	default:
		return 0, nil, fmt.Errorf("wire: unexpected %v request", f.Type)
	}
}

// recordLedger appends the roster's energy-ledger totals to a durable
// shard's log as a node record — after every call that spends energy, so
// a kill -9'd process resumes the ledger its last reply left, losing at
// most the call in flight. Like the store's own tap it never perturbs the
// call: a failed write shows in the storage block. Caller holds s.mu.
func (s *Server) recordLedger() {
	if s.cfg.DataDir != "" {
		s.store.RecordEnergies(s.body.Ledger())
	}
}

// Store exposes the shard's durable tier (tests inspect recovery state).
func (s *Server) Store() *storage.Store { return s.store }

// Attached reports how many queries are attached (tests pin that a
// dissolved or widened group's operator is released).
func (s *Server) Attached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.body.Attached()
}
