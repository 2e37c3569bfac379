package wire

// The pipelined-client suite: concurrent calls multiplexing one socket
// must not queue behind each other's timeouts or backoffs, responses may
// land out of order, injected frame faults must stay invisible at the
// at-most-once layer, and the epoch round must be byte-identical to the
// same shard driven in-process.

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

// TestServerRefusesEvictedSequence: the at-most-once layer replays a
// sequence it still caches and refuses one old enough to have been
// evicted — executing it could be a re-execution.
func TestServerRefusesEvictedSequence(t *testing.T) {
	addr, _ := startTestServer(t)
	exchange := rawSession(t, addr)
	round := Frame{Seq: 2, Type: MsgEpochRound, Payload: AppendEpochRound(nil, EpochRoundReq{Epoch: 0})}
	first := exchange(round)
	if first.Type != MsgEpochRoundReply {
		t.Fatalf("round reply %v: %s", first.Type, first.Payload)
	}
	if again := exchange(round); again.Type != first.Type || !bytes.Equal(again.Payload, first.Payload) {
		t.Fatal("a cached sequence was not replayed byte-identically")
	}
	for seq := uint64(3); seq < 3+replayCap; seq++ {
		if rep := exchange(Frame{Seq: seq, Type: MsgDetach, Payload: AppendU32(nil, 1)}); rep.Type != MsgDetached {
			t.Fatalf("detach reply %v", rep.Type)
		}
	}
	if rep := exchange(round); rep.Type != MsgError || !strings.Contains(string(rep.Payload), "stale sequence") {
		t.Fatalf("evicted sequence answered %v: %s", rep.Type, rep.Payload)
	}
}

// TestServerReplayHorizon: the replay cache is a ring of the last replayCap
// replies. After the ring has wrapped twice, the oldest sequence still in
// it — replayCap calls back, counting the newest — is replayed byte for
// byte, not re-executed (a re-run round would have sensed again and moved
// the counters row the reply carries), and the one call older than that is
// refused as stale.
func TestServerReplayHorizon(t *testing.T) {
	addr, _ := startTestServer(t)
	exchange := rawSession(t, addr)
	round := func(seq uint64) Frame {
		return Frame{Seq: seq, Type: MsgEpochRound, Payload: AppendEpochRound(nil, EpochRoundReq{Epoch: model.Epoch(seq)})}
	}
	const last = 2 + 2*replayCap
	replies := make(map[uint64][]byte)
	for seq := uint64(2); seq <= last; seq++ {
		rep := exchange(round(seq))
		if rep.Type != MsgEpochRoundReply {
			t.Fatalf("seq %d: reply %v: %s", seq, rep.Type, rep.Payload)
		}
		replies[seq] = rep.Payload
	}
	oldest := uint64(last - replayCap + 1)
	for _, seq := range []uint64{oldest, last} {
		if rep := exchange(round(seq)); rep.Type != MsgEpochRoundReply || !bytes.Equal(rep.Payload, replies[seq]) {
			t.Fatalf("seq %d inside the horizon was not replayed byte for byte (%v)", seq, rep.Type)
		}
	}
	if rep := exchange(round(oldest - 1)); rep.Type != MsgError || !strings.Contains(string(rep.Payload), "stale sequence") {
		t.Fatalf("seq %d, one past the horizon, answered %v: %s", oldest-1, rep.Type, rep.Payload)
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
// client holds — here the held-back reply to an earlier call, landing after
// a later call's — does not displace it, and Stats makes no call.
func TestStatsKeepsTheNewestStamp(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	addr := startStubServer(t, func(f Frame) (Frame, bool) {
		if f.Type != MsgDetach {
			return Frame{}, false
		}
		if q, _ := DecodeU32(f.Payload); q == 1 {
			close(held)
			<-release
		}
		return Frame{Seq: f.Seq, Type: MsgDetached, Payload: f.Payload}, true
	})
	cl, err := Dial(stubClientConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if row, err := cl.Stats(); err != nil || row.Messages != 0 || row.Algorithm != "stub" {
		t.Fatalf("before any call Stats read %+v, %v; want the welcome's row", row, err)
	}
	first := make(chan error, 1)
	go func() { first <- cl.Detach(1) }() // sequence 1, held back
	<-held
	if err := cl.Detach(2); err != nil { // sequence 2, stamped 2
		t.Fatal(err)
	}
	close(release)
	if err := <-first; err != nil { // stamped 1, read after stamp 2
		t.Fatal(err)
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
// its welcome, then waits for one sequence on the returned channel: it
// writes the epoch-round reply for that sequence (none for 0) and closes
// the socket.
func replyThenCloseStub(t *testing.T) (string, chan<- uint64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replies, done := make(chan uint64), make(chan struct{})
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
			select {
			case seq := <-replies:
				if seq == 0 {
					break
				}
				body, err := AppendEpochRoundReply(nil, stubRoster, EpochRoundReply{Epoch: model.Epoch(seq - 1)})
				if err != nil {
					t.Error(err)
				}
				WriteFrame(conn, &wbuf, Frame{Seq: seq, Type: MsgEpochRoundReply, Payload: append(AppendEnvelope(nil, Envelope{}), body...)})
			case <-done:
			}
			conn.Close()
		}
	}()
	return ln.Addr().String(), replies
}

// waitSending waits until a call is inside Client.send, where a test
// holding the connection's write lock keeps it.
func waitSending(t *testing.T) {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("wire.(*Client).send(")); {
		if time.Now().After(deadline) {
			t.Fatal("no call reached Client.send")
		}
		runtime.Gosched()
	}
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
// then closes its socket has answered that call. The client's reader
// delivers the reply before it marks the connection dead, so the call
// returns that reply rather than retrying on a new connection. To make
// the reply and the death reach the call together on every call, the test
// holds the connection's write lock, so the call's request is still
// unsent while the stub writes the reply for its sequence and closes; the
// call then finds its connection dead with the reply waiting.
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
		cc, err := cl.getConn() // Dial's connection, then each one the last close left to redial
		if err != nil {
			t.Fatal(err)
		}
		cc.writeMu.Lock()
		result := roundAsync(cl, e)
		waitSending(t)
		replies <- uint64(e) + 1 // calls take sequences from 1
		<-cc.dead                // the reply delivered, then the close read
		cc.writeMu.Unlock()
		if err := <-result; err != nil {
			t.Fatalf("call %d: %v", e, err)
		}
		if m := cl.Metrics(); m.Retries != 0 {
			t.Fatalf("call %d retried (%d retries): the reply delivered before its connection closed was dropped", e, m.Retries)
		}
	}
}

// TestReplyThenCloseOnTheLastAttempt: the same reply-then-close, landing
// on a call's last allowed attempt, still answers the call. With one
// retry, the first attempt's connection closes unanswered; the test dials
// the connection the retry will take and holds its write lock, so the
// retry blocks in its send while the stub replies on it and closes. The
// send then fails on the closed connection with the reply waiting.
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
	for e := model.Epoch(0); e < calls; e++ {
		first, err := cl.getConn()
		if err != nil {
			t.Fatal(err)
		}
		first.writeMu.Lock()
		result := roundAsync(cl, e)
		waitSending(t)
		replies <- 0 // the first attempt's connection closes unanswered
		<-first.dead
		last, err := cl.getConn()
		if err != nil {
			t.Fatal(err)
		}
		last.writeMu.Lock()
		first.writeMu.Unlock() // the first attempt's send fails
		for cl.Metrics().Retries != int64(e)+1 {
			runtime.Gosched()
		}
		waitSending(t) // the retry, on last
		replies <- uint64(e) + 1
		<-last.dead
		last.writeMu.Unlock()
		if err := <-result; err != nil {
			t.Fatalf("call %d: %v", e, err)
		}
	}
}

// TestClientBackoffDoesNotBlockConcurrentCalls: a call waiting out its
// retry backoff must not delay other calls on the shared connection — the
// regression this pins is the serialized client sleeping its backoff
// under the call mutex. The stub swallows the first epoch-round attempt
// (the call times out and backs off); a detach issued mid-backoff must
// complete immediately.
func TestClientBackoffDoesNotBlockConcurrentCalls(t *testing.T) {
	var mu sync.Mutex
	roundDropped := false
	addr := startStubServer(t, func(f Frame) (Frame, bool) {
		switch f.Type {
		case MsgEpochRound:
			mu.Lock()
			first := !roundDropped
			roundDropped = true
			mu.Unlock()
			if first {
				return Frame{}, false // swallowed: the attempt times out
			}
			return emptyRound(t, f), true
		case MsgDetach:
			return Frame{Seq: f.Seq, Type: MsgDetached, Payload: f.Payload}, true
		case MsgClose:
			return Frame{}, false
		}
		return Frame{Seq: f.Seq, Type: MsgError, Payload: []byte("unexpected " + f.Type.String())}, true
	})
	cfg := stubClientConfig(addr)
	cfg.CallTimeout = 250 * time.Millisecond
	cfg.Retries = 3
	cfg.Backoff = 500 * time.Millisecond
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	roundDone := make(chan error, 1)
	go func() {
		_, _, err := cl.EpochRound(0, nil)
		roundDone <- err
	}()
	// Land inside the round's timeout+backoff window (first attempt is
	// swallowed at t=0, times out at 250ms, sleeps 500ms, retries at 750ms).
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if err := cl.Detach(1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("concurrent detach took %v while another call was retrying — backoff is blocking the connection", elapsed)
	}
	if err := <-roundDone; err != nil {
		t.Fatalf("the backed-off round never recovered: %v", err)
	}
	if cl.Metrics().Retries == 0 {
		t.Fatal("the swallowed round never retried — the scenario did not run")
	}
}

// TestClientPipelinedFaultsOutOfOrder: three concurrent callers multiplex
// one faulty socket — duplicated, delayed and response-dropped frames, so
// responses land out of order and retried sequences replay — and the
// sensed epoch stream plus the server's execution counters must stay
// byte-identical to a clean serial run: every request executed at most
// once, every response routed to its caller.
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

// TestClientSendWindow: with sendWindow calls in flight, the next call
// waits before taking a sequence — it sends nothing — until the oldest
// completes, and Close releases a caller still waiting.
func TestClientSendWindow(t *testing.T) {
	var mu sync.Mutex
	held := map[uint64]chan struct{}{}
	t.Cleanup(func() { // let every held reply go
		mu.Lock()
		defer mu.Unlock()
		for _, ch := range held {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	})
	seen := make(chan uint64, 2*sendWindow) // every sequence the test can send
	addr := startStubServer(t, func(f Frame) (Frame, bool) {
		if f.Type != MsgDetach {
			return Frame{}, false
		}
		mu.Lock()
		ch := make(chan struct{})
		held[f.Seq] = ch
		mu.Unlock()
		seen <- f.Seq
		<-ch
		return Frame{Seq: f.Seq, Type: MsgDetached, Payload: f.Payload}, true
	})
	cfg := stubClientConfig(addr)
	cfg.CallTimeout = time.Minute // no call retries while the test holds it
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	errs := make(chan error, sendWindow+2)
	for i := 0; i < sendWindow+2; i++ {
		go func() { errs <- cl.Detach(1) }()
	}
	for i := 0; i < sendWindow; i++ {
		<-seen
	}
	select {
	case seq := <-seen:
		t.Fatalf("sequence %d sent with %d calls in flight", seq, sendWindow)
	case err := <-errs:
		t.Fatalf("a call returned with the window full: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	// The oldest completes: exactly one waiting call enters the window.
	mu.Lock()
	close(held[1])
	mu.Unlock()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seq := <-seen; seq != sendWindow+1 {
		t.Fatalf("the call admitted after the oldest took sequence %d, want %d", seq, sendWindow+1)
	}
	select {
	case seq := <-seen:
		t.Fatalf("sequence %d sent beyond the window", seq)
	case <-time.After(100 * time.Millisecond):
	}
	// Close releases the caller still waiting for the window, and the
	// calls in flight.
	cl.Close()
	for i := 0; i < sendWindow+1; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call succeeded after Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a call is still blocked after Close")
		}
	}
}

// TestClientControlCallsBesideLossyRounds: epoch rounds whose replies the
// link drops retry their sequence while many goroutines' control calls
// execute on the same server. The send window keeps every retried round
// inside the server's replay horizon: no call is refused as a stale
// sequence, and no round runs twice.
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
// goroutine behind — the reader, the callers and their retry timers all
// wind down.
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
