package wire

// A session is the coordinator's and history is the shard's: a new
// session keeps the shard's store and ledger, the session's attachments
// ride every handshake (so attaches and detaches racing a reconnect settle
// once, against the same process or a restarted one), and a restarted
// durable shard resumes its roster and energy ledger from shard.log alone.

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/wire/wiretest"
)

// serveOn runs shard 0 of scen persisting under dir (memory-backed when
// dir is empty) on addr ("127.0.0.1:0" picks a port), with frame faults,
// and returns the bound address.
func serveOn(t *testing.T, scen *config.Scenario, dir, addr string, frames wiretest.Faults) (string, *Server) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Scenario: scen, Shard: 0, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.Serve(wiretest.Listen(ln, frames))
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv
}

// session dials addr with short timeouts, so a lost frame costs a
// reconnect quickly, and attaches the queries named.
func session(t *testing.T, addr string, queries ...uint32) *Client {
	t.Helper()
	cfg := testClientConfig(addr)
	cfg.CallTimeout, cfg.Retries, cfg.Backoff = 200*time.Millisecond, 8, 10*time.Millisecond
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	for _, q := range queries {
		if err := cl.Attach(q, "mint", sessionSQL[q]); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

var sessionSQL = map[uint32]string{
	1: "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
	2: "SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid",
}

// round runs one epoch round and returns its readings and answers bytes.
func round(t *testing.T, cl *Client, e model.Epoch, queries ...uint32) []byte {
	t.Helper()
	readings, groups, err := cl.EpochRound(e, queries)
	if err != nil {
		t.Fatalf("epoch %d: %v", e, err)
	}
	b := readingsBytes(t, config.Figure3Scenario().Roster(), e, readings)
	for _, g := range groups {
		if g.Err != nil {
			t.Fatalf("epoch %d: %v", e, g.Err)
		}
		b = append(b, answersBytesOf(g.Acq.Answers)...)
	}
	return b
}

// sameLedger reports whether two ledgers name the same nodes with
// bit-identical totals.
func sameLedger(a, b []storage.NodeEnergy) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].UJ) != math.Float64bits(b[i].UJ) {
			return false
		}
	}
	return true
}

// imageRecords splits a snapshot image into its log records' payloads;
// the last is the node record.
func imageRecords(img []byte) [][]byte {
	var recs [][]byte
	for b := img[8:]; len(b) > 0; b = b[8+binary.LittleEndian.Uint32(b):] {
		recs = append(recs, b[4:4+binary.LittleEndian.Uint32(b)])
	}
	return recs
}

// TestNewSessionKeepsTheShardHistory: a second client — a new session
// nonce — at a live durable shard resets only the session. The shard.log
// bytes, the cursor and the ledger are as the first session left them;
// the new session's clock, restarting at 0, is reported behind the cursor
// until it passes it, and then records again. The data dir holds one
// file.
func TestNewSessionKeepsTheShardHistory(t *testing.T) {
	dir := t.TempDir()
	addr, srv := serveOn(t, config.Figure3Scenario(), dir, "127.0.0.1:0", wiretest.Faults{})
	first := session(t, addr, 1)
	for e := model.Epoch(0); e < 6; e++ {
		round(t, first, e, 1)
	}
	first.Close()
	logPath := filepath.Join(dir, "shard.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	ledger := srv.body.Ledger()

	second := session(t, addr, 1)
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Fatalf("a new session rewrote shard.log: %d bytes, were %d", len(after), len(before))
	}
	if !sameLedger(srv.body.Ledger(), ledger) {
		t.Fatal("a new session changed the ledger")
	}
	if st, err := second.StorageStats(); err != nil || !st.HasEpoch || st.LastEpoch != 5 || st.Err != "" {
		t.Fatalf("storage block at the new session: %+v, %v", st, err)
	}
	for e := model.Epoch(0); e <= 6; e++ {
		round(t, second, e, 1)
		st, err := second.StorageStats()
		if err != nil {
			t.Fatal(err)
		}
		if e < 6 {
			if st.LastEpoch != 5 || !strings.Contains(st.Err, "behind the recorded epoch 5") {
				t.Fatalf("epoch %d of the new session: storage block %+v, want it behind epoch 5", e, st)
			}
		} else if st.LastEpoch != 6 || st.Err != "" {
			t.Fatalf("epoch %d of the new session: storage block %+v, want epoch 6 recorded", e, st)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 || ents[0].Name() != "shard.log" {
		t.Fatalf("data dir holds %v, want only shard.log", ents)
	}
}

// TestAttachDetachRacingAReconnect: an attach and a detach whose frames
// are lost force a reconnect mid-call, and the session's attachments ride
// the new handshake. Against the same process nothing is attached twice:
// every round's bytes and counters equal a lossless run's, so no epoch ran
// on a replaced operator. Against a process restarted mid-call, the
// in-flight attach leaves the query attached once and the in-flight detach
// leaves it detached.
func TestAttachDetachRacingAReconnect(t *testing.T) {
	type call func(cl *Client) []byte
	attach := func(q uint32) call {
		return func(cl *Client) []byte {
			if err := cl.Attach(q, "mint", sessionSQL[q]); err != nil {
				t.Fatalf("attach %d: %v", q, err)
			}
			return nil
		}
	}
	detach := func(q uint32) call {
		return func(cl *Client) []byte {
			if err := cl.Detach(q); err != nil {
				t.Fatalf("detach %d: %v", q, err)
			}
			return nil
		}
	}
	epoch := func(e model.Epoch, qs ...uint32) call {
		return func(cl *Client) []byte { return round(t, cl, e, qs...) }
	}
	// A fresh client's first call is sequence 1, so script[i] is sequence
	// i+1.
	script := []call{attach(1), epoch(0, 1), epoch(1, 1), epoch(2, 1),
		attach(2), epoch(3, 1, 2), epoch(4, 1, 2), epoch(5, 1, 2),
		detach(2), epoch(6, 1), epoch(7, 1)}
	const attachSeq, detachSeq = 5, 9
	// lossy picks a seed that loses the first arrival of exactly the
	// attach and the detach, and not their retries.
	lossy := func(f wiretest.Faults) wiretest.Faults {
		t.Helper()
		for f.Seed = 1; f.Seed < 1_000_000; f.Seed++ {
			ok := true
			for seq := uint64(1); seq <= uint64(len(script)) && ok; seq++ {
				lost := seq == attachSeq || seq == detachSeq
				ok = f.Lost(seq, 0) == lost && !(lost && f.Lost(seq, 1))
			}
			if ok {
				return f
			}
		}
		t.Fatal("no seed loses exactly the attach and the detach")
		return f
	}
	type counters struct{ messages, txBytes int }
	count := func(cl *Client) counters {
		row, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return counters{row.Messages, row.TxBytes}
	}
	refAddr, _ := serveOn(t, config.Figure3Scenario(), "", "127.0.0.1:0", wiretest.Faults{})
	ref := session(t, refAddr)
	var want [][]byte
	var wantCounts []counters
	for _, c := range script {
		want = append(want, c(ref))
		wantCounts = append(wantCounts, count(ref))
	}

	for _, tc := range []struct {
		name string
		f    wiretest.Faults
	}{
		{"same process, reply swallowed", wiretest.Faults{DropResp: 0.4}},
		{"same process, request dropped", wiretest.Faults{Drop: 0.4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, srv := serveOn(t, config.Figure3Scenario(), "", "127.0.0.1:0", lossy(tc.f))
			cl := session(t, addr)
			for i, c := range script {
				if got := c(cl); !bytes.Equal(got, want[i]) {
					t.Fatalf("sequence %d: round bytes differ from the lossless run", i+1)
				}
				if got := count(cl); got != wantCounts[i] {
					t.Fatalf("sequence %d: counters %+v, the lossless run %+v", i+1, got, wantCounts[i])
				}
			}
			if m := cl.Metrics(); m.Retries < 2 {
				t.Fatalf("%d retries: the lost frames were never lost", m.Retries)
			}
			if got := srv.Attached(); got != 1 {
				t.Fatalf("server holds %d attachments, want 1", got)
			}
		})
	}

	t.Run("restarted process", func(t *testing.T) {
		dir := t.TempDir()
		frames := lossy(wiretest.Faults{DropResp: 0.4})
		addr, srv := serveOn(t, config.Figure3Scenario(), dir, "127.0.0.1:0", frames)
		cl := session(t, addr)
		// inFlight runs script[i], whose reply the server swallows, and
		// restarts the server once it holds want attachments.
		inFlight := func(i, want int, faults wiretest.Faults) {
			t.Helper()
			done := make(chan []byte, 1)
			go func() { done <- script[i](cl) }()
			for srv.Attached() != want {
				time.Sleep(time.Millisecond)
			}
			srv.Close()
			_, srv = serveOn(t, config.Figure3Scenario(), dir, addr, faults)
			<-done
			if got := srv.Attached(); got != want {
				t.Fatalf("sequence %d: restarted server holds %d attachments, want %d", i+1, got, want)
			}
		}
		for i, c := range script {
			var got []byte
			switch i + 1 {
			case attachSeq:
				inFlight(i, 2, frames)
			case detachSeq:
				inFlight(i, 1, wiretest.Faults{})
			default:
				got = c(cl)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("sequence %d: round bytes differ from the uninterrupted run", i+1)
			}
		}
		if st, err := cl.StorageStats(); err != nil || st.LastEpoch != 7 || st.Err != "" {
			t.Fatalf("storage block after two restarts: %+v, %v", st, err)
		}
	})
}

// TestRefusedAttachRacingAReconnect: an attach the shard refuses, whose
// refusal is lost on the way back, rides the reconnect's handshake without
// failing it: the retried call gets the refusal, not an unreachable shard,
// and the session goes on.
func TestRefusedAttachRacingAReconnect(t *testing.T) {
	f := wiretest.Faults{DropResp: 0.4}
	for f.Seed = 1; !f.Lost(1, 0) || f.Lost(1, 1) || f.Lost(2, 0); f.Seed++ {
	}
	addr, srv := serveOn(t, config.Figure3Scenario(), "", "127.0.0.1:0", f)
	cl := session(t, addr)
	err := cl.Attach(1, "bogus", sessionSQL[1])
	if err == nil || !strings.Contains(err.Error(), "not a snapshot algorithm") || strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("refused attach: %v, want the shard's refusal", err)
	}
	if err := cl.Attach(2, "mint", sessionSQL[1]); err != nil {
		t.Fatal(err)
	}
	if m, got := cl.Metrics(), srv.Attached(); m.Retries < 1 || got != 1 {
		t.Fatalf("%d retries, %d attachments; want the lost reply retried and 1 attachment", m.Retries, got)
	}
}

// TestRestartSeatsTheRoster: a restarted durable shard seats every roster
// node from the node record it recovers — here a node churned down at
// epoch 1, silent for the whole kept window of a log a restore rewrote to
// that window — and the next snapshot carries its ledger total bit-exact.
func TestRestartSeatsTheRoster(t *testing.T) {
	scen := config.Figure3Scenario()
	roster := scen.Roster()
	silent := roster[len(roster)-1]
	scen.Faults = &faults.Config{Seed: 1, Churn: []faults.ChurnEvent{{Node: silent, Epoch: 1, Down: true}}}
	dir := t.TempDir()
	addr, srv := serveOn(t, scen, dir, "127.0.0.1:0", wiretest.Faults{})
	cl := session(t, addr, 1)
	for e := model.Epoch(0); e < storage.DefaultStoreWindow+6; e++ {
		if _, _, err := cl.EpochRound(e, []uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	img, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	recs := imageRecords(img)
	for _, rec := range recs[:len(recs)-1] {
		_, nodes, _, err := storage.DecodeReadings(rec[1:])
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(nodes, silent) {
			t.Fatalf("node %d sensed in the kept window: the premise does not hold", silent)
		}
	}
	// The restore rewrites the log to the kept window.
	if err := cl.Restore(img); err != nil {
		t.Fatal(err)
	}
	var want storage.NodeEnergy
	for _, r := range srv.body.Ledger() {
		if r.Node == silent {
			want = r
		}
	}
	if want.UJ == 0 {
		t.Fatalf("node %d spent nothing: the ledger check would be vacuous", silent)
	}
	cl.Close()
	srv.Close()

	addr, re := serveOn(t, scen, dir, "127.0.0.1:0", wiretest.Faults{})
	if st := re.Store().Stats(); st.Nodes != len(roster) {
		t.Fatalf("restarted store seats %d nodes, the roster has %d", st.Nodes, len(roster))
	}
	img, err = session(t, addr).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	recs = imageRecords(img)
	_, rows, err := storage.DecodeEnergies(recs[len(recs)-1][1:])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Node == silent {
			if math.Float64bits(r.UJ) != math.Float64bits(want.UJ) {
				t.Fatalf("node %d: snapshot carries %v µJ, the dead process spent %v", silent, r.UJ, want.UJ)
			}
			return
		}
	}
	t.Fatalf("node %d is missing from the restarted shard's node record", silent)
}

// TestEnergySurvivesAKill: a durable shard killed between epochs — its data
// dir as every committed epoch's writes left it — restarts with a ledger
// bit-equal to the dead process's, and from there spends, and kills its
// nodes, exactly where a process that never died does: the battery budget
// is small enough that a node dies after the kill. Every operator keeps
// state across epochs (at least that its query is installed), and the
// restarted process attaches afresh, so the live one is compared after it
// swaps its query for a fresh attachment at the kill too.
func TestEnergySurvivesAKill(t *testing.T) {
	scen := config.Figure3Scenario()
	scen.Budget = 0.02
	const kill, epochs = 4, 40
	dir := t.TempDir()
	addr, live := serveOn(t, scen, dir, "127.0.0.1:0", wiretest.Faults{})
	liveCl := session(t, addr, 1)
	for e := model.Epoch(0); e < kill; e++ {
		round(t, liveCl, e, 1)
	}
	// What a kill -9 leaves: the log as the last epoch's writes left it.
	raw, err := os.ReadFile(filepath.Join(dir, "shard.log"))
	if err != nil {
		t.Fatal(err)
	}
	dead := t.TempDir()
	if err := os.WriteFile(filepath.Join(dead, "shard.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, restarted := serveOn(t, scen, dead, "127.0.0.1:0", wiretest.Faults{})
	if !sameLedger(restarted.body.Ledger(), live.body.Ledger()) {
		t.Fatalf("restarted ledger %v, the dead process's %v", restarted.body.Ledger(), live.body.Ledger())
	}
	restartedCl := session(t, addr, 2)
	if err := liveCl.Detach(1); err != nil {
		t.Fatal(err)
	}
	if err := liveCl.Attach(2, "mint", sessionSQL[2]); err != nil {
		t.Fatal(err)
	}
	deaths := func() (n int) {
		for _, id := range scen.Roster() {
			if !live.Network().Alive(id) {
				n++
			}
		}
		return n
	}
	deadAtKill := deaths()
	for e := model.Epoch(kill); e < epochs; e++ {
		if !bytes.Equal(round(t, restartedCl, e, 2), round(t, liveCl, e, 2)) {
			t.Fatalf("epoch %d: the restarted shard answered differently", e)
		}
		if !sameLedger(restarted.body.Ledger(), live.body.Ledger()) {
			t.Fatalf("epoch %d: restarted ledger %v, the unkilled one %v", e, restarted.body.Ledger(), live.body.Ledger())
		}
		for _, n := range scen.Roster() {
			if restarted.Network().Alive(n) != live.Network().Alive(n) {
				t.Fatalf("epoch %d: node %d alive %v after the restart, %v without it", e, n, restarted.Network().Alive(n), live.Network().Alive(n))
			}
		}
	}
	t.Logf("%d nodes dead at the kill, %d at epoch %d", deadAtKill, deaths(), epochs)
	if deaths() == deadAtKill {
		t.Fatal("no node exhausted its budget after the kill: the restore was never tested at a death")
	}
}

// TestHistoricFetchAcrossAShardRestart: a historic execution keeps nothing
// on a shard between its two phases, so the phase-2 fetch after a restart
// between them — a new process on the same data dir and address, which the
// client reconnects to, or a new coordinator session on that process —
// returns the sums an uninterrupted execution gets.
func TestHistoricFetchAcrossAShardRestart(t *testing.T) {
	scen := config.Figure3Scenario()
	q := topk.HistoricQuery{K: 2, Agg: model.AggSum, Window: 16}
	ids := []model.GroupID{0, 5, 9, 15}
	dir := t.TempDir()
	addr, srv := serveOn(t, scen, dir, "127.0.0.1:0", wiretest.Faults{})
	cl := session(t, addr)
	phase1 := func() {
		t.Helper()
		if answers, _, err := cl.HistoricTopK("tja", q); err != nil || len(answers) != q.K {
			t.Fatalf("phase 1: %v %v", answers, err)
		}
	}

	phase1()
	want, err := cl.FetchSums(q.Window, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ids) {
		t.Fatalf("uninterrupted fetch: %v, want a sum for each of %v", want, ids)
	}

	phase1()
	srv.Close()
	_, re := serveOn(t, scen, dir, addr, wiretest.Faults{})
	got, err := cl.FetchSums(q.Window, ids)
	if err != nil {
		t.Fatalf("fetch from the restarted process: %v", err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("fetch from the restarted process: %v, uninterrupted %v", got, want)
	}
	if row := stats.Collect("restarted", re.Network(), 0); row.Messages == 0 {
		t.Fatal("the restarted process swept nothing: the fetch went elsewhere")
	}

	phase1()
	got, err = session(t, addr).FetchSums(q.Window, ids)
	if err != nil {
		t.Fatalf("fetch in a new session: %v", err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("fetch in a new session: %v, uninterrupted %v", got, want)
	}
}
