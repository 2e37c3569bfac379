package kspot

// The wire substrate's conformance suite: a federated deployment whose
// shards sit behind real loopback TCP sockets must answer byte-identically
// to the flat simulation and to the in-process federation — snapshot,
// historic and derived-readings queries, with and without frame faults on
// the socket path — and must degrade gracefully (tagged cursor errors, no
// leaks) when shards die or the coordinator closes mid-round.

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"kspot/internal/model"
	"kspot/internal/wire"
)

// TestWireFederatedConformance: the demo deployment split 2 and 3 ways
// behind loopback sockets answers every snapshot epoch like the flat run,
// for MINT and TAG, with the coordinator tier and the per-shard counters
// the shards' replies carried equal to the in-process federation's — at
// one wire call per shard per epoch on top of the post's single attach.
func TestWireFederatedConformance(t *testing.T) {
	rows := grid(row{name: "%[1]s/shards=%[2]d", world: "demo", wire: true, epochs: 8, queries: []rowQuery{{sql: demoSQL}}, checks: []check{oneCallPerRound}},
		[]Algorithm{AlgoMINT, AlgoTAG}, []int{2, 3}, []int{0})
	runRows(t, rows)
}

// oneCallPerRound: every shard session made exactly one call per stepped
// epoch — an epoch round — on top of the single attach the post cost.
func oneCallPerRound(t *testing.T, r row, sys *System, _ outcome) {
	for _, m := range sys.WireMetrics() {
		if m.Rounds != int64(r.epochs) || m.Calls != m.Rounds+1 {
			t.Fatalf("shard %s: %d rounds, %d calls over %d epochs (want %d rounds + 1 attach)", m.Shard, m.Rounds, m.Calls, r.epochs, r.epochs)
		}
	}
}

// TestWireFederatedHistoric: historic TOP-K (WITH HISTORY) over loopback
// sockets — each shard ranks its own windows in its own server and the
// coordinator's threshold round fetches targeted sums over the wire —
// answers like the flat run for TJA, TPUT and the centralized baseline,
// with the coordinator tier equal to the in-process federation's; and
// GROUP BY ... WITH HISTORY, whose derived readings the servers compute
// and ship back, stays oracle-exact over the wire.
func TestWireFederatedHistoric(t *testing.T) {
	rows := grid(row{name: "%[1]s", world: "demo", wire: true, queries: []rowQuery{{sql: demoHistSQL}}},
		[]Algorithm{AlgoTJA, AlgoTPUT, AlgoCentral}, []int{2}, []int{0})
	runRows(t, append(rows, row{name: "group-by", world: "demo", shards: 2, wire: true, epochs: 4, queries: []rowQuery{{sql: windowedSQL}}}))
}

// TestWireFrameFaultsByteIdentical: deterministic frame faults on the
// socket path — dropped, duplicated and delayed requests, dropped
// responses — are absorbed entirely by the at-most-once retry layer: the
// snapshot and historic answers and every counter stay those of the
// in-process federation even while the clients demonstrably retried.
func TestWireFrameFaultsByteIdentical(t *testing.T) {
	runRows(t, []row{{name: "frame-faults", world: "demo", shards: 2, wire: true, epochs: 6,
		frames:  wire.Faults{Seed: 7, Drop: 0.15, Dup: 0.15, Delay: 0.2, DropResp: 0.1, MaxDelay: time.Millisecond},
		queries: []rowQuery{{demoSQL, AlgoMINT}, {"SELECT TOP 3 epoch, AVG(sound) FROM sensors WITH HISTORY 8", AlgoAuto}},
		checks:  []check{retried}}})
}

// retried: the fault path ran — some call was retried.
func retried(t *testing.T, _ row, sys *System, _ outcome) {
	var n int64
	for _, m := range sys.WireMetrics() {
		n += m.Retries
	}
	if n == 0 {
		t.Fatal("frame faults armed but no call ever retried — the fault path did not run")
	}
}

// TestWireRadioFaultCrossCheck: a radio fault environment (link loss, dup,
// delay) armed in the shard servers from the scenario's faults block
// degrades the remote deployment exactly like the in-process federation
// under the same seed at 10% and 30% loss, and keeps the fault suite's
// recall floors.
func TestWireRadioFaultCrossCheck(t *testing.T) {
	var rows []row
	for _, tc := range []struct{ loss, floor float64 }{{0.10, 0.80}, {0.30, 0.75}} {
		rows = append(rows, row{name: fmt.Sprintf("loss=%.0f%%", tc.loss*100), world: "demo", shards: 2, wire: true, epochs: 12,
			faults:  &FaultConfig{Seed: 42, Loss: tc.loss, Duplicate: 0.05, Delay: 0.05},
			queries: []rowQuery{{demoSQL, AlgoMINT}}, checks: []check{recallFloor(tc.floor)}})
	}
	runRows(t, rows)
}

// recallFloor: the first query's mean recall against the oracle stays at
// or above floor.
func recallFloor(floor float64) check {
	return func(t *testing.T, _ row, _ *System, got outcome) {
		var recall float64
		for _, res := range got.steps[0] {
			recall += model.Recall(res.Answers, res.Exact)
		}
		if recall /= float64(len(got.steps[0])); recall < floor {
			t.Errorf("mean recall %.3f below floor %.2f", recall, floor)
		}
	}
}

// TestWireShardLossMidEpoch: killing one shard's server mid-stream
// surfaces as a tagged error on the cursors that step into it — promptly,
// bounded by the retry budget, with no hang — while the surviving shard's
// state machine keeps serving.
func TestWireShardLossMidEpoch(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	addrs, servers := startWireShards(t, shardedDemo(t, 2), 0)
	sys, err := OpenFederated(shardedDemo(t, 2), addrs,
		withWireTimeout(200*time.Millisecond), withWireRetry(1, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	curA, err := sys.Post(sql)
	if err != nil {
		t.Fatal(err)
	}
	curB, err := sys.PostWith("SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid", AlgoTAG)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := curA.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := curB.Step(); err != nil {
			t.Fatal(err)
		}
	}

	servers[1].Close() // the shard process dies mid-deployment

	start := time.Now()
	_, errA := curA.Step()
	if errA == nil {
		t.Fatal("step into a dead shard succeeded")
	}
	if !strings.Contains(errA.Error(), "shard-1") {
		t.Fatalf("error not tagged with the dead shard: %v", errA)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-shard step took %v — retry budget not bounding", elapsed)
	}
	// The other cursor surfaces the loss on its own step — an error, not a
	// wedge.
	if _, errB := curB.Step(); errB == nil {
		t.Fatal("second cursor's step into a dead shard succeeded")
	}
	// The surviving shard's server is not wedged: its state machine still
	// answers a call on the live connection (a detach of an id never
	// attached).
	if err := sys.shards[0].Detach(1 << 31); err != nil {
		t.Fatalf("surviving shard unreachable after peer death: %v", err)
	}
}

// TestWireCloseDuringInFlight: System.Close racing an in-flight socket
// round interrupts it promptly and leaves no goroutine and no fd behind —
// counted against pre-deployment baselines across repeated rounds.
func TestWireCloseDuringInFlight(t *testing.T) {
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := countFDs()

	for round := 0; round < 6; round++ {
		addrs, servers := startWireShards(t, shardedDemo(t, 2), 0)
		sys, err := OpenFederated(shardedDemo(t, 2), addrs)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Step(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				if _, err := cur.Step(); err != nil {
					return // closed under us — the expected exit
				}
			}
		}()
		sys.Close() // racing the stepping goroutine's socket rounds
		<-done
		// A closed remote deployment refuses like a closed local one: the
		// scheduler's own error, no socket touched.
		if _, err := cur.Step(); err == nil || !strings.Contains(err.Error(), "scheduler is closed") {
			t.Fatalf("round %d: Step after Close returned %v, want the scheduler's closed error", round, err)
		}
		for _, srv := range servers {
			srv.Close()
		}
	}

	waitGoroutines(t, baseGoroutines)
	deadline := time.Now().Add(5 * time.Second)
	for countFDs() > baseFDs+2 {
		if time.Now().After(deadline) {
			t.Fatalf("fds leaked: %d now vs %d at start", countFDs(), baseFDs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireOpenRejects: deployment-skew and misuse are caught at Open/Post
// time — wrong address count, node-count mismatch, an unknown algorithm on
// a coordinator-only System.
func TestWireOpenRejects(t *testing.T) {
	addrs, _ := startWireShards(t, shardedDemo(t, 2), 0)

	if _, err := OpenFederated(shardedDemo(t, 2), addrs[:1]); err == nil {
		t.Fatal("address/shard count mismatch accepted")
	}

	// A skewed deployment (different shard split) must fail the handshake.
	if _, err := OpenFederated(shardedDemo(t, 3), []string{addrs[0], addrs[1], addrs[0]}); err == nil {
		t.Fatal("shard-count skew accepted by the handshake")
	}

	sys, err := OpenFederated(shardedDemo(t, 2), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Network() != nil {
		t.Fatal("remote deployment exposed a local network")
	}
	if _, err := sys.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", Algorithm("bogus")); err == nil {
		t.Fatal("bogus algorithm accepted on a remote deployment")
	}
}

// TestWireDetachReleasesAttachments: a shard process forgets a group's
// operator when the group dissolves or is widened onto a new attachment —
// after 50 distinct-signature queries came and went and one group widened,
// each server holds exactly the live groups, and a -data-dir server
// restarted on its journal re-attaches only those.
func TestWireDetachReleasesAttachments(t *testing.T) {
	scen := shardedDemo(t, 2)
	dirs := []string{t.TempDir(), t.TempDir()}
	serve := func(i int) *wire.Server {
		srv, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: i, DataDir: dirs[i]})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	addrs := make([]string, len(dirs))
	servers := make([]*wire.Server, len(dirs))
	for i := range dirs {
		servers[i] = serve(i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go servers[i].Serve(ln)
		addrs[i] = ln.Addr().String()
	}
	sys, err := OpenFederated(shardedDemo(t, 2), addrs)
	if err != nil {
		t.Fatal(err)
	}
	attached := func(when string, want int) {
		t.Helper()
		for i, srv := range servers {
			if got := srv.Attached(); got != want {
				t.Fatalf("%s: shard %d holds %d attached queries, want %d", when, i, got, want)
			}
		}
	}

	kept, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n < 52; n++ { // the history window is part of the sensing signature
		cur, err := sys.Post(fmt.Sprintf("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid WITH HISTORY %d", n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Step(); err != nil {
			t.Fatal(err)
		}
		attached(fmt.Sprintf("query %d posted", n), 2)
		cur.Close()
	}
	attached("50 groups dissolved", 1)

	narrow, err := sys.Post("SELECT TOP 1 roomid, MAX(temp) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sys.Post("SELECT TOP 3 roomid, MAX(temp) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	attached("one group widened", 2)
	for _, cur := range []*Cursor{kept, narrow, wide} {
		if res, err := cur.Step(); err != nil || !res.Correct {
			t.Fatalf("live group broken by the releases around it: err=%v res=%+v", err, res)
		}
	}

	// The processes die with two groups live; their journals replay 53
	// attaches and 51 detaches.
	sys.Close()
	for i, srv := range servers {
		srv.Close()
		servers[i] = serve(i)
		defer servers[i].Close()
	}
	attached("restarted on the journal", 2)
}

// TestShardStackRecordsCommittedReadings: every host of a shard — an
// in-process one at Parallel 1 and at Parallel 4, a wire shard server —
// assembles it with the one constructor (shard.New), so under an armed
// fault environment each one's durable tier records exactly the
// committed, post-fault readings: the same bytes on all three, with a node
// churned down at epoch 2 sensed for the last time in that epoch (churn
// fires on the epoch's first transmission, after its sensing). A WITH
// HISTORY group sweeps derived readings (node-local window aggregates)
// through the same epochs; the tap must never see them.
func TestShardStackRecordsCommittedReadings(t *testing.T) {
	base := row{name: "live=%[4]v", world: "demo", durable: true, epochs: 6, checks: []check{recordsRawReadings},
		faults:  &FaultConfig{Seed: 9, Loss: 0.1, Churn: []ChurnEvent{{Node: 5, Epoch: 2, Down: true}}},
		queries: []rowQuery{{demoSQL, AlgoAuto}, {"SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid WITH HISTORY 4", AlgoAuto}}}
	served := base
	served.name, served.wire = "served", true
	runRows(t, append(grid(base, []Algorithm{AlgoAuto}, []int{1}, []int{1, 4}), served))
}

// recordsRawReadings: the store holds every node, each recorded at every
// epoch it sensed — node 5 at epochs 0, 1 and 2 — with its own raw sample.
func recordsRawReadings(t *testing.T, r row, sys *System, got outcome) {
	h := imageHistory(t, got.images[0])
	src, err := sys.Scenario().Source()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range h.nodes {
		want := r.epochs
		if n.Node == 5 {
			want = 3
		}
		if len(h.epochs[n.Node]) != want {
			t.Fatalf("node %d has %d recorded epochs %v, want %d", n.Node, len(h.epochs[n.Node]), h.epochs[n.Node], want)
		}
		for i, e := range h.epochs[n.Node] {
			if raw := int64(model.ToFixed(model.Quantize(src.Sample(n.Node, e)))); h.values[n.Node][i] != raw {
				t.Fatalf("node %d epoch %d recorded %d, want the raw sensed %d", n.Node, e, h.values[n.Node][i], raw)
			}
		}
	}
	if len(h.nodes) != len(sys.Scenario().Nodes) {
		t.Fatalf("store holds %d nodes, want %d", len(h.nodes), len(sys.Scenario().Nodes))
	}
}

// TestCaptureStatsSkipsUnreachableShard: a shard whose last call ended
// unreachable leaves its counters out of the deployment's sum — it does not
// zero the surviving shards' traffic (what kspotd -connect publishes on
// /stats while a shard is retrying), and its last row is not passed off as
// current.
func TestCaptureStatsSkipsUnreachableShard(t *testing.T) {
	addrs, servers := startWireShards(t, shardedDemo(t, 2), 0)
	sys, err := OpenFederated(shardedDemo(t, 2), addrs,
		withWireTimeout(200*time.Millisecond), withWireRetry(1, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoMINT)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		if _, err := cur.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := sys.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	both := sys.CaptureStats("both", 4)
	if both.Messages != rows[0].Messages+rows[1].Messages || rows[0].Messages == 0 || rows[1].Messages == 0 {
		t.Fatalf("healthy sum %d msgs, rows %d + %d", both.Messages, rows[0].Messages, rows[1].Messages)
	}

	servers[1].Close() // the shard process dies
	// The next epoch finds it gone; the survivor runs its round.
	if _, err := cur.Step(); err == nil || !strings.Contains(err.Error(), "shard-1") {
		t.Fatalf("step with shard-1 dead: %v, want an error naming it", err)
	}

	got := sys.CaptureStats("survivor", 4)
	want, err := sys.shards[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	want.Algorithm, want.Epochs = "survivor", 4
	sameTraffic(t, "sum with shard-1 unreachable vs the surviving shard's row", got, RunStats(want))
	if _, err := sys.ShardStats(); err == nil {
		t.Fatal("ShardStats hid the dead shard")
	}
}

// TestCaptureStatsRidesTheRound: kspotd's loop — step, then CaptureStats
// and a /stats read of every shard's row and storage block — costs one
// wire call per shard per epoch, because every reply carries the shard's
// counters; and what CaptureStats sums from those rows is, after every
// epoch, exactly the in-process deployment's counters (messages, frames,
// bytes, drops, per-kind bytes, energies to the bit).
func TestCaptureStatsRidesTheRound(t *testing.T) {
	runRows(t, []row{{name: "shards=2", world: "demo", shards: 2, wire: true, poll: true, epochs: 20,
		queries: []rowQuery{{sql: demoSQL}}, checks: []check{oneCallPerRound}}})
}
