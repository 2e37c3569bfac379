package wire

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
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
	// the durable tier's shard.log plus a session journal (coordinator
	// nonce, attached queries, per-epoch energy checkpoints) live there, so
	// a kill -9'd kspotd -serve-shard restarted on the same directory
	// resumes the session mid-run. Empty keeps the memory backend — the
	// default, byte-identical to the pre-durability server.
	DataDir string
}

// Server puts one shard body (shard.Shard — the body an in-process System
// drives directly) behind the framed protocol: the kspotd -serve-shard
// process. What lives here is what is about the socket: the handshake, the
// at-most-once replay cache, the session journal and snapshot chunking;
// every request is decode → body → encode. It expects a single logical
// coordinator; requests are serialized (the shard substrate is one state
// machine) and executed at most once per sequence number — a reconnecting
// coordinator resuming a session replays cached responses instead of
// re-running sweeps.
type Server struct {
	cfg  ServerConfig
	body *shard.Shard

	store   *storage.Store
	journal *journal // nil without a data dir

	mu         sync.Mutex
	nonce      uint64
	evicted    uint64            // highest sequence evicted from the replay cache
	replay     map[uint64][]byte // reply frames by sequence: the bytes every write of the reply sends
	replaySeqs [replayCap]uint64 // ring of the cached sequences; slot replayNext%replayCap is the oldest once full
	replayNext int               // replies cached this session
	snapState  []byte            // pinned snapshot image being served in chunks
	restoreBuf []byte            // restore image being assembled from chunks

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// replayCap bounds the at-most-once response cache. The pipelined client
// keeps several calls in flight per connection (epoch rounds, stats polls,
// concurrent historic rounds), so the cache
// must outlive the deepest plausible in-flight window plus its retries.
const replayCap = 64

// NewServer builds a shard server: the durable tier (and, with a data dir,
// the session journal) opened here, the shard itself assembled by the
// constructor an in-process Open assembles it with (shard.New: same
// per-shard fault seeds, same arming, same tap order), so fault scenarios
// replay identically in-process and over the wire.
func NewServer(cfg ServerConfig) (*Server, error) {
	s := &Server{
		cfg:    cfg,
		replay: make(map[uint64][]byte),
		conns:  make(map[net.Conn]bool),
	}
	jst, err := s.openDurable()
	if err != nil {
		return nil, err
	}
	// The durable tier taps every committed sense epoch; in durable mode the
	// journal's energy checkpoint taps it beside the store.
	var taps []engine.ReadingsRecorder
	if s.journal != nil {
		taps = append(taps, energyCheckpoint{s})
	}
	s.body, err = shard.New(shard.Config{
		Scenario: cfg.Scenario,
		Shard:    cfg.Shard,
		Parallel: cfg.Parallel,
		Store:    s.store,
		Taps:     taps,
	})
	if err != nil {
		s.closeDurable()
		return nil, err
	}
	if err := s.recoverSession(jst); err != nil {
		s.body.Close()
		s.closeDurable()
		return nil, err
	}
	return s, nil
}

// openDurable opens the shard's durable tier (the memory backend when no
// data dir is configured) and, in durable mode, the session journal,
// returning the dead process's recovered session.
func (s *Server) openDurable() (journalState, error) {
	store, err := storage.OpenStore(s.cfg.DataDir, storage.DefaultStoreWindow)
	if err != nil {
		return journalState{}, err
	}
	s.store = store
	if s.cfg.DataDir == "" {
		return journalState{}, nil
	}
	j, jst, err := openJournal(filepath.Join(s.cfg.DataDir, "meta.journal"))
	if err != nil {
		store.Close()
		return journalState{}, err
	}
	s.journal = j
	return jst, nil
}

// recoverSession resumes a journaled session: the coordinator nonce (so
// the reconnecting client does not look like a new session and trigger a
// reset), its still-attached queries (replayed through the normal attach
// path — the shard re-derives each operator from the journaled SQL), and
// the last flushed energy checkpoint.
func (s *Server) recoverSession(jst journalState) error {
	s.nonce = jst.nonce
	for _, a := range jst.attaches {
		if err := s.body.Attach(a.Query, a.Algo, a.SQL); err != nil {
			return fmt.Errorf("wire: replaying journaled attach %d (%q): %w", a.Query, a.SQL, err)
		}
	}
	for n, uj := range jst.energy {
		s.body.Network().RestoreEnergy(n, uj)
	}
	return nil
}

func (s *Server) closeDurable() {
	if s.journal != nil {
		s.journal.Close()
	}
	s.store.Close()
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
	s.closeDurable()
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
		// A new coordinator session: reset the at-most-once state and the
		// shard's session scope (shard.Reset: attachments, historic
		// executions, the durable tier — the field's energy and counters
		// persist). The journal resets with it: both are session artifacts
		// (a crash-restarted shard keeps them precisely because its
		// coordinator's nonce is unchanged).
		s.nonce = hello.Nonce
		s.evicted = 0
		s.replay = make(map[uint64][]byte)
		s.replayNext = 0
		s.snapState = nil
		s.restoreBuf = nil
		if err := s.body.Reset(); err != nil {
			s.mu.Unlock()
			WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgError, Payload: []byte(err.Error())})
			return
		}
		if s.journal != nil {
			if err := s.journal.Nonce(hello.Nonce); err != nil {
				s.mu.Unlock()
				WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgError, Payload: []byte(err.Error())})
				return
			}
		}
	}
	s.mu.Unlock()
	welcome := AppendWelcome(nil, Welcome{
		Version: Version,
		Shard:   uint16(s.cfg.Shard),
		Nodes:   uint16(len(s.body.Roster())),
		Name:    s.body.Name(),
	})
	if err := WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgWelcome, Payload: welcome}); err != nil {
		return
	}
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return
		}
		reply, close := s.dispatch(f)
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

// dispatch executes one request frame at most once: a sequence number
// already executed replays its cached reply (a retried or duplicated
// frame must not re-run a sweep or re-charge sensing). The pipelined
// client's in-flight calls reach the socket in any order, so the server
// executes any sequence it has not seen; only a sequence old enough to
// have been EVICTED from the replay cache is refused — executing it could
// be a re-execution, which at-most-once forbids.
//
// The reply is returned encoded, and the connection writes exactly those
// bytes: a reply is framed once, and a replay writes the cached frame as it
// stands. Cached bytes are never modified once stored — a replay of the
// same sequence may be mid-write on another connection.
func (s *Server) dispatch(f Frame) (reply []byte, close bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.replay[f.Seq]; ok {
		return cached, MsgType(cached[frameHeaderSize-1]) == MsgClosed
	}
	if f.Seq <= s.evicted {
		return AppendFrame(nil, Frame{Seq: f.Seq, Type: MsgError, Payload: []byte("wire: stale sequence")}), false
	}
	t, payload, err := s.handle(f)
	if err != nil {
		t, payload = MsgError, []byte(err.Error())
	}
	reply = AppendFrame(nil, Frame{Seq: f.Seq, Type: t, Payload: payload})
	slot := s.replayNext % replayCap
	if s.replayNext >= replayCap {
		old := s.replaySeqs[slot]
		delete(s.replay, old)
		s.evicted = max(s.evicted, old)
	}
	s.replaySeqs[slot] = f.Seq
	s.replayNext++
	s.replay[f.Seq] = reply
	return reply, t == MsgClosed
}

// handle executes one request under s.mu: decode, the body's call, encode.
func (s *Server) handle(f Frame) (MsgType, []byte, error) {
	switch f.Type {
	case MsgAttach:
		req, err := DecodeAttach(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		if err := s.body.Attach(req.Query, req.Algo, req.SQL); err != nil {
			return 0, nil, err
		}
		// Journaled AFTER the attach succeeds: a journaled attach is one the
		// shard will accept again on restart.
		if s.journal != nil {
			if err := s.journal.Attach(req); err != nil {
				return 0, nil, err
			}
		}
		return MsgAttached, AppendU32(nil, req.Query), nil

	case MsgDetach:
		qid, err := DecodeU32(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		s.body.Detach(qid)
		if s.journal != nil {
			if err := s.journal.Detach(qid); err != nil {
				return 0, nil, err
			}
		}
		return MsgDetached, AppendU32(nil, qid), nil

	case MsgEpochRound:
		req, err := DecodeEpochRound(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		readings, results, err := s.body.EpochRound(req.Epoch, req.Queries)
		if err != nil {
			return 0, nil, err
		}
		rep := EpochRoundReply{Epoch: req.Epoch, Readings: readings, Groups: make([]RoundGroup, len(results))}
		// Taken under s.mu right after the round: the row a stats call
		// arriving next would answer.
		rep.Stats, _ = s.body.Stats()
		for i, r := range results {
			if r.Err != nil {
				rep.Groups[i].Err = r.Err.Error()
			} else {
				rep.Groups[i].Answers, rep.Groups[i].Override = r.Acq.Answers, r.Acq.Readings
			}
		}
		payload, err := AppendEpochRoundReply(nil, s.body.Roster(), rep)
		if err != nil {
			return 0, nil, err
		}
		return MsgEpochRoundReply, payload, nil

	case MsgHistoric:
		req, err := DecodeHistoric(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		answers, nodes, err := s.body.HistoricTopK(req.Exec, req.Algo, topk.HistoricQuery{K: req.K, Agg: req.Agg, Window: req.Window})
		if err != nil {
			return 0, nil, err
		}
		return MsgTopK, AppendTopK(nil, req.Exec, nodes, answers), nil

	case MsgFetch:
		exec, ids, err := DecodeFetch(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		sums, err := s.body.FetchSums(exec, ids)
		if err != nil {
			return 0, nil, err
		}
		return MsgSums, AppendSums(nil, exec, sums), nil

	case MsgRelease:
		exec, err := DecodeU32(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		s.body.Release(exec)
		return MsgReleased, AppendU32(nil, exec), nil

	case MsgSnapshot:
		req, err := DecodeSnapshotReq(f.Payload)
		if err != nil {
			return 0, nil, err
		}
		if req.Offset == 0 {
			// Pin a consistent image: later chunks slice this encoding even
			// if epochs keep committing between requests.
			if s.snapState, err = s.body.Snapshot(); err != nil {
				return 0, nil, err
			}
		}
		if s.snapState == nil {
			return 0, nil, fmt.Errorf("wire: snapshot chunk %d without a pinned image", req.Offset)
		}
		img := s.snapState
		if int(req.Offset) >= len(img) {
			return 0, nil, fmt.Errorf("wire: snapshot offset %d beyond image of %d bytes", req.Offset, len(img))
		}
		end := int(req.Offset) + SnapshotChunkSize
		if end > len(img) {
			end = len(img)
		}
		payload := AppendSnapshotChunk(nil, SnapshotChunk{Total: uint32(len(img)), Offset: req.Offset, Data: img[req.Offset:end]})
		if end == len(img) {
			// Final byte served: drop the pin. A retry of this chunk replays
			// from the at-most-once cache, never from the image.
			s.snapState = nil
		}
		return MsgSnapshotChunk, payload, nil

	case MsgRestore:
		req, err := DecodeRestoreChunk(f.Payload)
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
		return MsgRestored, AppendRestored(nil, rep), nil

	case MsgStats:
		row, _ := s.body.Stats()
		block, _ := s.body.StorageStats()
		return MsgStatsReply, AppendStatsReply(nil, row, block), nil

	case MsgClose:
		return MsgClosed, nil, nil

	default:
		return 0, nil, fmt.Errorf("wire: unexpected %v request", f.Type)
	}
}

// energyCheckpoint is the journal's tap on the sense commit: in durable
// mode every committed epoch checkpoints the energy ledger (the restart
// floor: a kill -9 loses at most the epoch in flight). Best-effort for
// answers, like the store's tap beside it — a journal failure must not
// perturb the sense path; it shows in the storage block instead.
type energyCheckpoint struct{ s *Server }

// RecordReadings implements engine.ReadingsRecorder.
func (c energyCheckpoint) RecordReadings(e model.Epoch, _ map[model.NodeID]model.Reading) {
	var nodes []model.NodeID
	net := c.s.body.Network()
	net.Locked(func() {
		ids := net.Ledger.Nodes()
		nodes = make([]model.NodeID, 0, len(ids))
		for _, id := range ids {
			nodes = append(nodes, model.NodeID(id))
		}
	})
	if err := c.s.journal.Energy(e, nodes, c.s.body.EnergyOf); err != nil {
		c.s.store.Fail(err)
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
