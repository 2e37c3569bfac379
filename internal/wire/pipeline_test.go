package wire

// The client suite: calls from many goroutines take turns on one socket,
// each holding it from its first send to its reply; late and duplicated
// frames and swallowed replies must stay invisible at the at-most-once
// layer; and the epoch round must be byte-identical to the same shard
// driven in-process.

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/stats"
	"kspot/internal/topk"
	"kspot/internal/topk/registry"
	"kspot/internal/trace"
	"kspot/internal/wire/wiretest"
)

// startTestServer runs a real shard server for the Figure-3 scenario on a
// loopback listener.
func startTestServer(t *testing.T) (string, *Server) {
	t.Helper()
	return startFaultyServer(t, wiretest.Faults{})
}

// startFaultyServer is startTestServer with frame faults injected on the
// server's side of every connection.
func startFaultyServer(t *testing.T, frames wiretest.Faults) (string, *Server) {
	t.Helper()
	return serveOn(t, config.Figure3Scenario(), "", "127.0.0.1:0", frames)
}

// testClientConfig dials the Figure-3 shard.
func testClientConfig(addr string) ClientConfig {
	scen := config.Figure3Scenario()
	return ClientConfig{
		Addr:     addr,
		Scenario: scen.Name,
		Shard:    0,
		Shards:   1,
		Nodes:    len(scen.Nodes),
		Roster:   scen.Roster(),
	}
}

// startStubServer speaks the handshake (echoing the hello's identity, its
// envelope stamped 0), then hands every subsequent frame to fn on its own
// goroutine; fn returns the reply frame, or ok=false to swallow the
// request. The stub puts an envelope ahead of the reply's payload, stamped
// with the request's sequence and counting as many messages. Concurrent
// replies interleave under a write mutex — a scripted far end for timeout,
// backoff and shutdown scenarios a real server answers too quickly to
// produce.
func startStubServer(t *testing.T, fn func(f Frame) (Frame, bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				f, err := ReadFrame(conn)
				if err != nil || f.Type != MsgHello {
					return
				}
				h, err := DecodeHello(f.Payload)
				if err != nil {
					return
				}
				var wmu sync.Mutex
				var wbuf []byte
				welcome := AppendWelcome(nil, Welcome{Version: Version, Shard: h.Shard, Nodes: h.Nodes, Name: "stub"})
				if err := WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgWelcome, Payload: welcome}); err != nil {
					return
				}
				for {
					f, err := ReadFrame(conn)
					if err != nil {
						return
					}
					go func(f Frame) {
						if rep, ok := fn(f); ok {
							env := Envelope{Stamp: f.Seq, Row: stats.RunStats{Messages: int(f.Seq)}}
							rep.Payload = append(AppendEnvelope(nil, env), rep.Payload...)
							wmu.Lock()
							defer wmu.Unlock()
							var buf []byte
							WriteFrame(conn, &buf, rep)
						}
					}(f)
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// stubClientConfig dials a stub server as a one-node shard.
func stubClientConfig(addr string) ClientConfig {
	return ClientConfig{Addr: addr, Scenario: "stub", Shard: 0, Shards: 1, Nodes: 1, Roster: stubRoster}
}

var stubRoster = []model.NodeID{1}

// emptyRound is the stub's reply to an epoch round: nothing sensed, no
// groups.
func emptyRound(t *testing.T, f Frame) Frame {
	req, err := DecodeEpochRound(f.Payload)
	if err != nil {
		t.Error(err)
	}
	payload, err := AppendEpochRoundReply(nil, stubRoster, EpochRoundReply{Epoch: req.Epoch})
	if err != nil {
		t.Error(err)
	}
	return Frame{Seq: f.Seq, Type: MsgEpochRoundReply, Payload: payload}
}

// readingsBytes pins byte-identity of a readings map via its canonical
// roster-positional encoding.
func readingsBytes(t *testing.T, roster []model.NodeID, e model.Epoch, readings map[model.NodeID]model.Reading) []byte {
	t.Helper()
	b, err := AppendRosterReadings(nil, roster, e, readings)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func answersBytesOf(answers []model.Answer) []byte {
	var b []byte
	for _, a := range answers {
		b = model.AppendAnswer(b, a)
	}
	return b
}

// TestEpochRoundByteIdenticalToPerCall: the epoch round — sense plus every
// group's acquisition in one frame — must produce byte-identical readings,
// answers and derived-readings overrides to the per-call sequence it
// stands for, run in-process on the same sub-scenario with no socket:
// PresampleEpoch + CommitSenseEpoch, then each operator's Epoch in order,
// including a WITH HISTORY group whose override readings ride the reply.
// A group that fails inside a round stays isolated to its group.
func TestEpochRoundByteIdenticalToPerCall(t *testing.T) {
	queries := []struct {
		qid  uint32
		algo string
		sql  string
	}{
		{1, "mint", "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"},
		{2, "tag", "SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid"},
		{3, "mint", "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4"},
	}
	qids := []uint32{1, 2, 3}
	const epochs = 6

	// Wire leg: one EpochRound call per epoch against a real server.
	addr, srv := startTestServer(t)
	cfg := testClientConfig(addr)
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, q := range queries {
		if err := cl.Attach(q.qid, q.algo, q.sql); err != nil {
			t.Fatal(err)
		}
	}

	// In-process leg: the same network, trace source and operators, driven
	// call by call.
	scen := config.Figure3Scenario()
	network, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	type local struct {
		op       topk.SnapshotOperator
		override trace.Source
	}
	locals := make([]local, len(queries))
	for i, q := range queries {
		plan, err := query.PlanText(q.sql, query.DefaultSchema())
		if err != nil {
			t.Fatal(err)
		}
		op, err := registry.Snapshot(q.algo)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Attach(network, plan.Snapshot); err != nil {
			t.Fatal(err)
		}
		locals[i].op = op
		if plan.Kind == query.PlanHistoricGroupTopK {
			locals[i].override = trace.WindowAgg(src, plan.History, plan.Snapshot.Agg)
		}
	}

	for e := model.Epoch(0); e < epochs; e++ {
		readings, results, err := cl.EpochRound(e, qids)
		if err != nil {
			t.Fatal(err)
		}
		sensed := engine.PresampleEpoch(network, src, e)
		engine.CommitSenseEpoch(network, e, sensed)
		if !bytes.Equal(readingsBytes(t, cfg.Roster, e, readings), readingsBytes(t, cfg.Roster, e, sensed)) {
			t.Fatalf("epoch %d: round sense diverged from in-process", e)
		}
		for gi, qid := range qids {
			in := sensed
			var override map[model.NodeID]model.Reading
			if locals[gi].override != nil {
				override = engine.DeriveReadings(sensed, locals[gi].override, e)
				in = override
			}
			want, err := locals[gi].op.Epoch(e, in)
			if err != nil {
				t.Fatal(err)
			}
			if results[gi].Err != nil {
				t.Fatalf("epoch %d group %d: %v", e, qid, results[gi].Err)
			}
			got := results[gi].Acq
			if !bytes.Equal(answersBytesOf(got.Answers), answersBytesOf(want)) {
				t.Fatalf("epoch %d group %d: answers %v != %v", e, qid, got.Answers, want)
			}
			if (got.Readings == nil) != (override == nil) {
				t.Fatalf("epoch %d group %d: override presence diverged", e, qid)
			}
			if override != nil && !bytes.Equal(readingsBytes(t, cfg.Roster, e, got.Readings), readingsBytes(t, cfg.Roster, e, override)) {
				t.Fatalf("epoch %d group %d: override readings diverged", e, qid)
			}
		}
	}
	// Same sweeps, same charges: the radio counters agree to the message.
	if w, l := stats.Collect("", srv.Network(), 0), stats.Collect("", network, 0); w.Messages != l.Messages || w.TxBytes != l.TxBytes || w.EnergyUJ != l.EnergyUJ {
		t.Fatalf("counters diverged: wire %+v, in-process %+v", w, l)
	}

	// One more round with an unattached qid appended: the WITH HISTORY
	// group still ships its override, the unknown qid errors alone, the
	// attached groups answer and the sense stands.
	readings, results, err := cl.EpochRound(epochs, append(qids, 99))
	if err != nil {
		t.Fatal(err)
	}
	if len(readings) == 0 {
		t.Fatal("round with a failed group lost the sense")
	}
	if results[2].Err != nil || results[2].Acq.Readings == nil {
		t.Fatalf("derived-readings group shipped no override (err %v)", results[2].Err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("healthy groups poisoned: %v / %v", results[0].Err, results[1].Err)
	}
	if results[3].Err == nil {
		t.Fatal("unknown query id succeeded")
	}
}

// TestDialRejectsBadRoster: the roster is the frame of reference every
// epoch round decodes against, so a config without a usable one is refused
// with a field-naming error before any connection is attempted (the
// address is a closed port: reaching the network would fail differently).
func TestDialRejectsBadRoster(t *testing.T) {
	base := ClientConfig{Addr: "127.0.0.1:1", Scenario: "stub", Shard: 0, Shards: 1, Nodes: 3, DialTimeout: 50 * time.Millisecond}
	for name, roster := range map[string][]model.NodeID{
		"empty":      nil,
		"short":      {1, 2},
		"unsorted":   {1, 3, 2},
		"duplicated": {1, 2, 2},
	} {
		cfg := base
		cfg.Roster = roster
		cl, err := Dial(cfg)
		if err == nil {
			cl.Close()
			t.Fatalf("%s roster accepted", name)
		}
		if !strings.Contains(err.Error(), "ClientConfig.Roster") {
			t.Fatalf("%s roster: error does not name the field: %v", name, err)
		}
	}
}

// rawSession handshakes a bare connection to the Figure-3 shard server as
// sequence 1 of a fresh session and returns a one-frame-at-a-time exchange
// on it: the at-most-once layer seen without a client's retries.
func rawSession(t *testing.T, addr string) func(Frame) Frame {
	t.Helper()
	cfg := testClientConfig(addr)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var wbuf []byte
	exchange := func(f Frame) Frame {
		t.Helper()
		if err := WriteFrame(conn, &wbuf, f); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	hello := AppendHello(nil, Hello{Version: Version, Shard: 0, Shards: 1, Nodes: uint16(cfg.Nodes), Nonce: newNonce(), Scenario: cfg.Scenario})
	if rep := exchange(Frame{Seq: 1, Type: MsgHello, Payload: hello}); rep.Type != MsgWelcome {
		t.Fatalf("handshake reply %v: %s", rep.Type, rep.Payload)
	}
	return exchange
}

// TestServerRefusesEvictedSequence: the server's replay cache is the
// session's last sequence alone. That sequence again is replayed byte for
// byte; once a higher one has executed, it has left the cache and is
// refused — executing it could be a re-execution.
func TestServerRefusesEvictedSequence(t *testing.T) {
	addr, _ := startTestServer(t)
	exchange := rawSession(t, addr)
	round := Frame{Seq: 2, Type: MsgEpochRound, Payload: AppendEpochRound(nil, EpochRoundReq{Epoch: 0})}
	first := exchange(round)
	if first.Type != MsgEpochRoundReply {
		t.Fatalf("round reply %v: %s", first.Type, first.Payload)
	}
	if again := exchange(round); again.Type != first.Type || !bytes.Equal(again.Payload, first.Payload) {
		t.Fatal("the last sequence was not replayed byte-identically")
	}
	if rep := exchange(Frame{Seq: 3, Type: MsgDetach, Payload: AppendU32(nil, 1)}); rep.Type != MsgDetached {
		t.Fatalf("detach reply %v", rep.Type)
	}
	if rep := exchange(round); rep.Type != MsgError || !strings.Contains(string(rep.Payload), "stale sequence") {
		t.Fatalf("evicted sequence answered %v: %s", rep.Type, rep.Payload)
	}
}

// TestServerReplayHorizon: the replay horizon is one sequence. Along a run
// of rounds, each round's sequence sent again is replayed byte for byte
// with its original stamp, not re-executed (a re-run round would have
// sensed again and moved the counters row and stamp the reply carries),
// even after a refusal; the sequence before it is refused as stale without
// executing; and the next one executes.
func TestServerReplayHorizon(t *testing.T) {
	addr, _ := startTestServer(t)
	exchange := rawSession(t, addr)
	round := func(seq uint64) Frame {
		return Frame{Seq: seq, Type: MsgEpochRound, Payload: AppendEpochRound(nil, EpochRoundReq{Epoch: model.Epoch(seq)})}
	}
	for seq := uint64(2); seq <= 12; seq++ {
		rep := exchange(round(seq))
		if rep.Type != MsgEpochRoundReply {
			t.Fatalf("seq %d: reply %v: %s", seq, rep.Type, rep.Payload)
		}
		if env, _, err := DecodeEnvelope(rep.Payload); err != nil || env.Stamp != seq-1 {
			t.Fatalf("seq %d: stamped %d (%v), want %d: one execution per sequence", seq, env.Stamp, err, seq-1)
		}
		if stale := exchange(round(seq - 1)); stale.Type != MsgError || !strings.Contains(string(stale.Payload), "stale sequence") {
			t.Fatalf("seq %d, below the last, answered %v: %s", seq-1, stale.Type, stale.Payload)
		}
		if again := exchange(round(seq)); again.Type != MsgEpochRoundReply || !bytes.Equal(again.Payload, rep.Payload) {
			t.Fatalf("seq %d, the last, was not replayed byte for byte (%v)", seq, again.Type)
		}
	}
}

// TestServerRefusesASupersededSession: once a new session's hello has
// arrived, a frame on the old session's connection — a closing client's
// goodbye, say — is refused without executing, and does not take the new
// session's slot: the new session's sequence 1 still executes.
func TestServerRefusesASupersededSession(t *testing.T) {
	addr, _ := startTestServer(t)
	old := rawSession(t, addr)
	current := rawSession(t, addr)
	if rep := old(Frame{Seq: ^uint64(0), Type: MsgClose}); rep.Type != MsgError || !strings.Contains(string(rep.Payload), "session ended") {
		t.Fatalf("the superseded session's goodbye answered %v: %s", rep.Type, rep.Payload)
	}
	if rep := current(Frame{Seq: 1, Type: MsgEpochRound, Payload: AppendEpochRound(nil, EpochRoundReq{Epoch: 0})}); rep.Type != MsgEpochRoundReply {
		t.Fatalf("the current session's first call answered %v: %s", rep.Type, rep.Payload)
	}
}

// TestStatsFailsAfterClose: after Close, Stats fails — it does not answer
// from the row the last round brought back.
func TestStatsFailsAfterClose(t *testing.T) {
	addr, _ := startTestServer(t)
	cl, err := Dial(testClientConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.EpochRound(0, nil); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if row, err := cl.Stats(); err == nil {
		t.Fatalf("Stats after Close answered %+v", row)
	}
}

// TestStatsKeepsTheNewestStamp: a reply stamped older than the row the
// client holds — here a late duplicate of the first call's reply, which
// the third call reads ahead of its own — does not displace it, and Stats
// makes no call and does not wait for the call in flight.
func TestStatsKeepsTheNewestStamp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Each reply is stamped with its sequence and counts as many messages.
	reply := func(seq uint64) Frame {
		env := Envelope{Stamp: seq, Row: stats.RunStats{Messages: int(seq)}}
		return Frame{Seq: seq, Type: MsgDetached, Payload: append(AppendEnvelope(nil, env), AppendU32(nil, uint32(seq))...)}
	}
	late, hold := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var wbuf []byte
		f, err := ReadFrame(conn)
		if err != nil {
			return
		}
		h, _ := DecodeHello(f.Payload)
		WriteFrame(conn, &wbuf, Frame{Type: MsgWelcome, Payload: AppendWelcome(nil, Welcome{Version: Version, Shard: h.Shard, Nodes: h.Nodes, Name: "stub"})})
		for {
			f, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if f.Seq == 3 {
				WriteFrame(conn, &wbuf, reply(1)) // the first call's reply, late
				close(late)
				<-hold
			}
			WriteFrame(conn, &wbuf, reply(f.Seq))
		}
	}()
	cl, err := Dial(stubClientConfig(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if row, err := cl.Stats(); err != nil || row.Messages != 0 || row.Algorithm != "stub" {
		t.Fatalf("before any call Stats read %+v, %v; want the welcome's row", row, err)
	}
	for q := uint32(1); q <= 2; q++ { // sequences 1 and 2, stamped 1 and 2
		if err := cl.Detach(q); err != nil {
			t.Fatal(err)
		}
	}
	read := cl.Metrics().BytesIn
	third := make(chan error, 1)
	go func() { third <- cl.Detach(3) }() // sequence 3, held back
	<-late
	for lateSize := int64(len(AppendFrame(nil, reply(1)))); cl.Metrics().BytesIn < read+lateSize; {
		time.Sleep(time.Millisecond) // until the third call has read the late reply
	}
	calls := cl.Metrics().Calls
	row, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if row.Messages != 2 {
		t.Fatalf("Stats read the row stamped %d, want the newest (2)", row.Messages)
	}
	if made := cl.Metrics().Calls - calls; made != 0 {
		t.Fatalf("Stats made %d calls", made)
	}
	release()
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	if row, _ := cl.Stats(); row.Messages != 3 {
		t.Fatalf("after the third reply Stats read %d messages, want 3", row.Messages)
	}
}

// TestStatsWelcomeRowReplacesOldConnection: a restarted shard restarts its
// stamps, so a new connection's Welcome row replaces the held row however
// high the old connection's stamp was, and the new connection's replies
// are compared with it alone.
func TestStatsWelcomeRowReplacesOldConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Each connection: welcome, then one reply, then (first connection
	// only) the process "dies".
	script := []struct{ welcome, reply Envelope }{
		{Envelope{Stamp: 0}, Envelope{Stamp: 10, Row: stats.RunStats{Messages: 10}}},
		{Envelope{Stamp: 1, Row: stats.RunStats{Messages: 1}}, Envelope{Stamp: 1, Row: stats.RunStats{Messages: 1}}},
	}
	go func() {
		for i, step := range script {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var wbuf []byte
			f, err := ReadFrame(conn)
			if err != nil {
				return
			}
			h, _ := DecodeHello(f.Payload)
			WriteFrame(conn, &wbuf, Frame{Type: MsgWelcome, Payload: AppendWelcome(nil, Welcome{Version: Version, Shard: h.Shard, Nodes: h.Nodes, Name: "stub", Counters: step.welcome})})
			if f, err = ReadFrame(conn); err != nil {
				return
			}
			WriteFrame(conn, &wbuf, Frame{Seq: f.Seq, Type: MsgDetached, Payload: append(AppendEnvelope(nil, step.reply), f.Payload...)})
			if i == 0 {
				conn.Close()
				continue
			}
			defer conn.Close()
			for {
				if _, err := ReadFrame(conn); err != nil {
					return
				}
			}
		}
	}()
	cfg := stubClientConfig(ln.Addr().String())
	cfg.Backoff = time.Millisecond
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Detach(1); err != nil {
		t.Fatal(err)
	}
	if row, _ := cl.Stats(); row.Messages != 10 {
		t.Fatalf("first connection: Stats read %d messages, want 10", row.Messages)
	}
	if err := cl.Detach(2); err != nil { // redials: the first connection is gone
		t.Fatal(err)
	}
	if row, _ := cl.Stats(); row.Messages != 1 {
		t.Fatalf("after reconnecting Stats read %d messages, want the new connection's 1", row.Messages)
	}
}

// replyThenCloseStub serves a stub shard that, on each connection, sends
// its welcome, reads one request and waits for a word on the returned
// channel: true writes the epoch-round reply for that request, false
// none. Either way it then closes the socket.
func replyThenCloseStub(t *testing.T) (string, chan<- bool) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replies, done := make(chan bool), make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var wbuf []byte
			f, err := ReadFrame(conn)
			if err != nil {
				conn.Close()
				continue
			}
			h, _ := DecodeHello(f.Payload)
			WriteFrame(conn, &wbuf, Frame{Type: MsgWelcome, Payload: AppendWelcome(nil, Welcome{Version: Version, Shard: h.Shard, Nodes: h.Nodes, Name: "stub"})})
			req, err := ReadFrame(conn)
			if err != nil {
				conn.Close()
				continue
			}
			select {
			case reply := <-replies:
				if !reply {
					break
				}
				round, err := DecodeEpochRound(req.Payload)
				if err != nil {
					t.Error(err)
				}
				body, err := AppendEpochRoundReply(nil, stubRoster, EpochRoundReply{Epoch: round.Epoch})
				if err != nil {
					t.Error(err)
				}
				WriteFrame(conn, &wbuf, Frame{Seq: req.Seq, Type: MsgEpochRoundReply, Payload: append(AppendEnvelope(nil, Envelope{}), body...)})
			case <-done:
			}
			conn.Close()
		}
	}()
	return ln.Addr().String(), replies
}

// roundAsync runs the epoch round for e in the background. EpochRound
// refuses a reply for another epoch, so a nil error means the call
// returned its own reply.
func roundAsync(cl *Client, e model.Epoch) <-chan error {
	result := make(chan error, 1)
	go func() {
		_, _, err := cl.EpochRound(e, nil)
		result <- err
	}()
	return result
}

// TestReplyThenCloseIsNotRetried: a shard that writes a call's reply and
// then closes its socket has answered that call. The call reads its own
// socket, where the reply comes ahead of the close, so it returns that
// reply rather than retrying on a new connection. The stub writes the
// reply and closes at once, so the reply and the death reach the call
// together on every call.
func TestReplyThenCloseIsNotRetried(t *testing.T) {
	addr, replies := replyThenCloseStub(t)
	cfg := stubClientConfig(addr)
	cfg.Backoff = time.Millisecond
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const calls = 100
	for e := model.Epoch(0); e < calls; e++ {
		result := roundAsync(cl, e) // on Dial's connection, then each one the last close left to redial
		replies <- true
		if err := <-result; err != nil {
			t.Fatalf("call %d: %v", e, err)
		}
		if m := cl.Metrics(); m.Retries != 0 {
			t.Fatalf("call %d retried (%d retries): the reply that came before its connection closed was dropped", e, m.Retries)
		}
	}
}

// TestReplyThenCloseOnTheLastAttempt: the same reply-then-close, landing
// on a call's last allowed attempt, still answers the call. Each call
// finds the connection the last reply's close left dead and redials it at
// once; with one retry, the first attempt's new connection closes
// unanswered, and the retry, on another, gets its reply and the close
// together.
func TestReplyThenCloseOnTheLastAttempt(t *testing.T) {
	addr, replies := replyThenCloseStub(t)
	cfg := stubClientConfig(addr)
	cfg.Backoff, cfg.Retries = time.Millisecond, 1
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const calls = 20
	result := roundAsync(cl, calls) // Dial's connection answers, then closes
	replies <- true
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(0); e < calls; e++ {
		result := roundAsync(cl, e)
		replies <- false // the first attempt's connection closes unanswered
		replies <- true  // the retry's is answered, then closes
		if err := <-result; err != nil {
			t.Fatalf("call %d: %v", e, err)
		}
		if m := cl.Metrics(); m.Retries != int64(e)+1 {
			t.Fatalf("call %d: %d retries in all, want %d", e, m.Retries, e+1)
		}
	}
}

// TestClientPipelinedFaultsOutOfOrder: three concurrent callers take turns
// on one faulty socket — duplicated, delayed and response-dropped frames,
// so late replies to ended calls arrive out of order and retried sequences
// replay — and the sensed epoch stream plus the server's execution
// counters must stay byte-identical to a clean serial run: every request
// executed at most once, every reply returned to its own caller.
func TestClientPipelinedFaultsOutOfOrder(t *testing.T) {
	const epochs = 8
	run := func(frames wiretest.Faults) ([][]byte, int64, ClientMetrics) {
		addr, srv := startFaultyServer(t, frames)
		cfg := testClientConfig(addr)
		cfg.CallTimeout = 150 * time.Millisecond
		cfg.Retries = 12
		cfg.Backoff = 2 * time.Millisecond
		cl, err := Dial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		// Two pollers make calls that reach the server (a detach of an id
		// never attached), stopped before anything closes the client — a
		// failing round included — and before the metrics are read.
		stop := make(chan struct{})
		var pollers sync.WaitGroup
		stopPollers := sync.OnceFunc(func() {
			close(stop)
			pollers.Wait()
		})
		defer stopPollers()
		for i := 0; i < 2; i++ {
			pollers.Add(1)
			go func() {
				defer pollers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := cl.Detach(1 << 31); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		var senses [][]byte
		for e := model.Epoch(0); e < epochs; e++ {
			readings, _, err := cl.EpochRound(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			senses = append(senses, readingsBytes(t, cfg.Roster, e, readings))
		}
		stopPollers()
		// The server-side counters witness at-most-once execution: a
		// replayed (rather than re-executed) retry leaves them untouched.
		msgs := stats.Collect("", srv.Network(), 0).Messages
		return senses, int64(msgs), cl.Metrics()
	}

	clean, cleanMsgs, _ := run(wiretest.Faults{})
	faulty, faultyMsgs, m := run(wiretest.Faults{Seed: 11, Dup: 0.2, Delay: 0.3, DropResp: 0.15, MaxDelay: 2 * time.Millisecond})

	for e := range clean {
		if !bytes.Equal(clean[e], faulty[e]) {
			t.Fatalf("epoch %d: sensed readings diverged under faults", e)
		}
	}
	if cleanMsgs != faultyMsgs {
		t.Fatalf("server executed %d messages under faults, %d clean — a retry re-executed", faultyMsgs, cleanMsgs)
	}
	if m.Retries == 0 {
		t.Fatal("faults armed but no call retried — the fault path did not run")
	}
	if m.Calls < epochs || m.Rounds != epochs {
		t.Fatalf("metrics: %d calls, %d rounds (want >= %d calls, %d rounds)", m.Calls, m.Rounds, epochs, epochs)
	}
	if m.BytesOut == 0 || m.BytesIn == 0 || m.P50Micros == 0 {
		t.Fatalf("metrics incomplete: %+v", m)
	}
}

// TestClientOneCallInFlight: calls from 16 goroutines reach the shard one
// at a time, in strictly ascending sequence from 1 with none skipped, and
// none is refused. Then, with one call parked on a reply that never comes
// and 16 more queued for their turn, Close releases them all promptly with
// errors and leaves no goroutine behind.
func TestClientOneCallInFlight(t *testing.T) {
	const callers, each = 16, 20
	const park = 1 << 31 // the detach the stub never answers
	baseGoroutines := runtime.NumGoroutine()
	var mu sync.Mutex
	var seqs []uint64
	inFlight := 0
	parked := make(chan struct{})
	addr := startStubServer(t, func(f Frame) (Frame, bool) {
		if f.Type != MsgDetach {
			return Frame{}, false
		}
		mu.Lock()
		seqs = append(seqs, f.Seq)
		inFlight++
		if inFlight > 1 {
			t.Errorf("sequence %d reached the shard with %d calls in flight", f.Seq, inFlight)
		}
		mu.Unlock()
		if q, _ := DecodeU32(f.Payload); q == park {
			close(parked)
			return Frame{}, false
		}
		time.Sleep(50 * time.Microsecond) // room for an overlapping call to arrive
		mu.Lock()
		inFlight--
		mu.Unlock()
		return Frame{Seq: f.Seq, Type: MsgDetached, Payload: f.Payload}, true
	})
	cfg := stubClientConfig(addr)
	cfg.CallTimeout = time.Minute // the parked call is still on its first attempt at Close
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := cl.Detach(1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	for i, seq := range seqs {
		if seq != uint64(i)+1 {
			t.Fatalf("call %d reached the shard as sequence %d, want %d", i, seq, i+1)
		}
	}
	if len(seqs) != callers*each {
		t.Fatalf("%d calls reached the shard, want %d", len(seqs), callers*each)
	}
	mu.Unlock()

	errs := make(chan error, callers+1)
	go func() { errs <- cl.Detach(park) }()
	<-parked
	for i := 0; i < callers; i++ {
		go func() { errs <- cl.Detach(1) }()
	}
	for cl.Metrics().Calls != callers*each+1+callers {
		time.Sleep(time.Millisecond) // until every caller is queued for its turn
	}
	cl.Close()
	for i := 0; i < callers+1; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call succeeded after Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a call is still blocked after Close")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientControlCallsBesideLossyRounds: epoch rounds whose replies the
// link drops retry their sequence while many goroutines' control calls
// queue behind them on the same client. A round keeps its turn until it is
// answered, so its retry always finds its sequence in the server's one-slot
// replay cache: no call is refused as a stale sequence, and no round runs
// twice.
func TestClientControlCallsBesideLossyRounds(t *testing.T) {
	const rounds, callers = 16, 16
	addr, srv := startFaultyServer(t, wiretest.Faults{Seed: 5, DropResp: 0.15})
	cfg := testClientConfig(addr)
	cfg.CallTimeout = 150 * time.Millisecond
	cfg.Retries = 12
	cfg.Backoff = 2 * time.Millisecond
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := cl.Detach(1 << 31); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for e := model.Epoch(0); e < rounds; e++ {
		if _, _, err := cl.EpochRound(e, nil); err != nil {
			t.Fatalf("round %d: %v", e, err)
		}
	}
	if cl.Metrics().Retries == 0 {
		t.Fatal("no call retried — the lossy link did not run")
	}
	if got := stats.Collect("", srv.Network(), 0).Epochs; got != rounds {
		t.Fatalf("the shard counted %d epochs for %d rounds", got, rounds)
	}
}

// TestClientCloseInterruptsInFlight: Close racing calls parked on a
// black-hole server unblocks them promptly with errors and leaves no
// goroutine behind — the caller in flight, the callers queued for their
// turn and their retry timers all wind down.
func TestClientCloseInterruptsInFlight(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	addr := startStubServer(t, func(f Frame) (Frame, bool) { return Frame{}, false })
	cfg := stubClientConfig(addr)
	cfg.CallTimeout = 5 * time.Second
	cfg.Retries = 5
	cfg.Backoff = time.Second
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, _, err := cl.EpochRound(model.Epoch(i), nil)
			errs <- err
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // all three are in flight
	start := time.Now()
	cl.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("an in-flight call succeeded after Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("an in-flight call is still blocked after Close")
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v to interrupt in-flight calls", elapsed)
	}
	if _, _, err := cl.EpochRound(99, nil); err == nil {
		t.Fatal("a call after Close succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRosterReadingsCodec: the positional encoding round-trips exactly,
// and its strictness holds — non-roster nodes refuse to encode, padding
// bits and truncated bitmaps refuse to decode.
func TestRosterReadingsCodec(t *testing.T) {
	roster := []model.NodeID{2, 5, 9, 11, 300}
	readings := map[model.NodeID]model.Reading{
		2:   {Node: 2, Group: 1, Epoch: 7, Value: 42.25},
		9:   {Node: 9, Group: 3, Epoch: 7, Value: -17.5},
		300: {Node: 300, Group: 2, Epoch: 9, Value: 0},
	}
	b, err := AppendRosterReadings(nil, roster, 7, readings)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeRosterReadings(b, roster, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if len(got) != len(readings) {
		t.Fatalf("decoded %d readings, want %d", len(got), len(readings))
	}
	for id, want := range readings {
		if got[id] != want {
			t.Fatalf("node %d: %+v != %+v", id, got[id], want)
		}
	}
	// Positional identity: encoding is a pure function of roster order.
	b2, err := AppendRosterReadings(nil, roster, 7, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("re-encode diverged")
	}
	// A reading keyed outside the roster must refuse to encode.
	if _, err := AppendRosterReadings(nil, roster, 7, map[model.NodeID]model.Reading{4: {Node: 4}}); err == nil {
		t.Fatal("non-roster node encoded")
	}
	// A set padding bit past the roster must refuse to decode.
	bad := append([]byte(nil), b...)
	bad[0] |= 1 << 6 // roster has 5 nodes: bits 5.. are padding
	if _, _, err := DecodeRosterReadings(bad, roster, 7); err == nil {
		t.Fatal("padding bit accepted")
	}
	if _, _, err := DecodeRosterReadings(b[:0], roster, 7); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

// TestEpochRoundCodecRejects: malformed round frames are refused, not
// misparsed — wrong status bytes, empty error strings, trailing bytes.
func TestEpochRoundCodecRejects(t *testing.T) {
	roster := []model.NodeID{1, 2, 3}
	rep := EpochRoundReply{
		Epoch:    4,
		Readings: map[model.NodeID]model.Reading{1: {Node: 1, Epoch: 4, Value: 1}},
		Groups: []RoundGroup{
			{Answers: []model.Answer{{Group: 1, Score: 10}}},
			{Err: "query gone"},
		},
	}
	b, err := AppendEpochRoundReply(nil, roster, rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEpochRoundReply(b, roster)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 || len(got.Groups) != 2 || got.Groups[1].Err != "query gone" {
		t.Fatalf("round-trip: %+v", got)
	}
	if _, err := DecodeEpochRoundReply(append(b, 0), roster); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeEpochRoundReply(b[:len(b)-1], roster); err == nil {
		t.Fatal("truncated reply accepted")
	}
	// An error group must carry a non-empty message.
	bad := EpochRoundReply{Epoch: 1, Groups: []RoundGroup{{}}}
	bb, err := AppendEpochRoundReply(nil, roster, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEpochRoundReply(bb, roster); err != nil {
		t.Fatalf("empty ok group refused: %v", err)
	}

	req := EpochRoundReq{Epoch: 3, Queries: []uint32{7, 8}}
	rb := AppendEpochRound(nil, req)
	gotReq, err := DecodeEpochRound(rb)
	if err != nil || gotReq.Epoch != 3 || len(gotReq.Queries) != 2 || gotReq.Queries[1] != 8 {
		t.Fatalf("request round-trip: %+v / %v", gotReq, err)
	}
	if _, err := DecodeEpochRound(append(rb, 0)); err == nil {
		t.Fatal("trailing request byte accepted")
	}
	if _, err := DecodeEpochRound(rb[:3]); err == nil {
		t.Fatal("truncated request accepted")
	}
}
