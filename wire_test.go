package kspot

// The wire substrate's conformance suite: a federated deployment whose
// shards sit behind real loopback TCP sockets must answer byte-identically
// to the flat simulation and to the in-process federation — snapshot,
// historic and derived-readings queries, with and without frame faults on
// the socket path — and must degrade gracefully (tagged cursor errors, no
// leaks) when shards die or the coordinator closes mid-round.

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"kspot/internal/model"
	"kspot/internal/wire"
)

// startWireShards runs one wire.Server per shard of the scenario on
// loopback listeners (in-process, so the whole protocol runs under the
// race detector) and returns their addresses in shard order.
func startWireShards(t *testing.T, scen *Scenario, parallel int) ([]string, []*wire.Server) {
	t.Helper()
	shardScens, err := scen.ShardScenarios()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(shardScens))
	servers := make([]*wire.Server, len(shardScens))
	for i := range shardScens {
		srv, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: i, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addrs[i] = ln.Addr().String()
		servers[i] = srv
	}
	return addrs, servers
}

// answerBytes pins byte-identity: two answer sets are byte-identical iff
// their model-codec encodings are equal bytes.
func answerBytes(answers []Answer) []byte {
	var b []byte
	for _, a := range answers {
		b = model.AppendAnswer(b, a)
	}
	return b
}

func stepEqualByteIdentical(t *testing.T, label string, got, want []StepResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs vs %d", label, len(got), len(want))
	}
	for e := range got {
		if !bytes.Equal(answerBytes(got[e].Answers), answerBytes(want[e].Answers)) {
			t.Fatalf("%s epoch %d: %v != %v", label, e, got[e].Answers, want[e].Answers)
		}
	}
}

// TestWireFederatedConformance: the demo deployment split 2 and 3 ways
// behind loopback sockets answers every snapshot epoch byte-identically
// to the flat run and to the in-process federation, for MINT and TAG; the
// coordinator-tier counters match the in-process federation exactly, and
// the per-shard counters fetched over the wire reconcile message for
// message with the in-process shard networks.
func TestWireFederatedConformance(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	const epochs = 8
	for _, algo := range []Algorithm{AlgoMINT, AlgoTAG} {
		flatSys, err := Open(DemoScenario())
		if err != nil {
			t.Fatal(err)
		}
		flat := runCursor(t, flatSys, sql, algo, epochs)
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				scen := shardedDemo(t, shards)
				inproc, err := Open(scen)
				if err != nil {
					t.Fatal(err)
				}
				defer inproc.Close()
				inprocRes := runCursor(t, inproc, sql, algo, epochs)

				addrs, _ := startWireShards(t, shardedDemo(t, shards), 0)
				remote, err := OpenFederated(shardedDemo(t, shards), addrs)
				if err != nil {
					t.Fatal(err)
				}
				defer remote.Close()
				if !remote.Remote() || remote.Shards() != shards {
					t.Fatalf("remote system misconfigured: remote=%v shards=%d", remote.Remote(), remote.Shards())
				}
				got := runCursor(t, remote, sql, algo, epochs)

				stepEqualByteIdentical(t, "remote vs flat", got, flat)
				stepEqualByteIdentical(t, "remote vs in-process", got, inprocRes)
				for e := range got {
					if !got[e].Correct {
						t.Fatalf("epoch %d: remote answers %v diverged from oracle %v", e, got[e].Answers, got[e].Exact)
					}
				}

				// One round trip per epoch: every shard session made exactly
				// one call per stepped epoch — an epoch round — on top of
				// the single attach the post cost.
				for _, m := range remote.WireMetrics() {
					if m.Rounds != epochs || m.Calls != m.Rounds+1 {
						t.Fatalf("shard %s: %d rounds, %d calls over %d epochs (want %d rounds + 1 attach)", m.Shard, m.Rounds, m.Calls, epochs, epochs)
					}
				}

				// Coordinator tier: the same two-phase merge ran on the same
				// shard answers, so the counters must be equal, not just close.
				if rf, pf := remote.FederationStats(), inproc.FederationStats(); rf != pf {
					t.Fatalf("coordinator tier diverged: remote %+v, in-process %+v", rf, pf)
				}

				// Per-shard counters, fetched over the wire, reconcile with
				// the in-process shard networks message for message.
				remoteRows, err := remote.ShardStats()
				if err != nil {
					t.Fatal(err)
				}
				inprocRows, err := inproc.ShardStats()
				if err != nil {
					t.Fatal(err)
				}
				if len(remoteRows) != len(inprocRows) {
					t.Fatalf("%d remote stat rows vs %d", len(remoteRows), len(inprocRows))
				}
				for i := range remoteRows {
					r, p := remoteRows[i], inprocRows[i]
					if r.Algorithm != p.Algorithm || r.Messages != p.Messages || r.Frames != p.Frames ||
						r.TxBytes != p.TxBytes || r.RxBytes != p.RxBytes || r.EnergyUJ != p.EnergyUJ {
						t.Fatalf("shard %d counters diverged:\nremote     %+v\nin-process %+v", i, r, p)
					}
				}
			})
		}
	}
}

// TestWireFederatedHistoric: historic TOP-K (WITH HISTORY) over loopback
// sockets — each shard ranks its own windows in its own server and the
// coordinator's threshold round fetches targeted sums over the wire —
// stays byte-identical to the flat run for TJA, TPUT and the centralized
// baseline, with the coordinator tier equal to the in-process federation.
func TestWireFederatedHistoric(t *testing.T) {
	const sql = "SELECT TOP 4 epoch, AVG(sound) FROM sensors WITH HISTORY 16"
	for _, algo := range []Algorithm{AlgoTJA, AlgoTPUT, AlgoCentral} {
		t.Run(string(algo), func(t *testing.T) {
			flatSys, err := Open(DemoScenario())
			if err != nil {
				t.Fatal(err)
			}
			flatCur, err := flatSys.PostWith(sql, algo)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := flatCur.Run()
			if err != nil {
				t.Fatal(err)
			}

			inproc, err := Open(shardedDemo(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer inproc.Close()
			inprocCur, err := inproc.PostWith(sql, algo)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inprocCur.Run(); err != nil {
				t.Fatal(err)
			}

			addrs, _ := startWireShards(t, shardedDemo(t, 2), 0)
			remote, err := OpenFederated(shardedDemo(t, 2), addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			cur, err := remote.PostWith(sql, algo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cur.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(answerBytes(got), answerBytes(flat)) {
				t.Fatalf("remote historic %v, flat %v", got, flat)
			}
			if rf, pf := remote.FederationStats(), inproc.FederationStats(); rf != pf {
				t.Fatalf("coordinator tier diverged: remote %+v, in-process %+v", rf, pf)
			}
		})
	}

	// GROUP BY ... WITH HISTORY rides the snapshot pipeline on derived
	// readings; the shard servers derive them locally and ship them back,
	// so the oracle check must hold over the wire too.
	addrs, _ := startWireShards(t, shardedDemo(t, 2), 0)
	remote, err := OpenFederated(shardedDemo(t, 2), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cur, err := remote.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res, err := cur.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("epoch %d: %v vs %v", res.Epoch, res.Answers, res.Exact)
		}
	}
}

// TestWireFrameFaultsByteIdentical: deterministic frame faults on the
// socket path — dropped, duplicated and delayed requests, dropped
// responses — must be absorbed entirely by the at-most-once retry layer:
// the answers stay byte-identical to the clean-socket run even while the
// clients demonstrably retried.
func TestWireFrameFaultsByteIdentical(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	const epochs = 6

	run := func(opts ...OpenOption) ([]StepResult, []Answer, *System) {
		addrs, _ := startWireShards(t, shardedDemo(t, 2), 0)
		sys, err := OpenFederated(shardedDemo(t, 2), addrs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		res := runCursor(t, sys, sql, AlgoMINT, epochs)
		cur, err := sys.Post("SELECT TOP 3 epoch, AVG(sound) FROM sensors WITH HISTORY 8")
		if err != nil {
			t.Fatal(err)
		}
		hist, err := cur.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, hist, sys
	}

	clean, cleanHist, _ := run()
	faulty, faultyHist, sys := run(
		withWireFaults(wire.Faults{Seed: 7, Drop: 0.15, Dup: 0.15, Delay: 0.2, DropResp: 0.1, MaxDelay: time.Millisecond}),
		withWireTimeout(250*time.Millisecond),
		withWireRetry(10, 2*time.Millisecond),
	)
	stepEqualByteIdentical(t, "faulty vs clean sockets", faulty, clean)
	if !bytes.Equal(answerBytes(faultyHist), answerBytes(cleanHist)) {
		t.Fatalf("historic diverged under frame faults: %v vs %v", faultyHist, cleanHist)
	}
	var retried int64
	for _, m := range sys.WireMetrics() {
		retried += m.Retries
	}
	if retried == 0 {
		t.Fatal("frame faults armed but no call ever retried — the fault path did not run")
	}
}

// TestWireRadioFaultCrossCheck: a radio fault environment (link loss,
// dup, delay) armed in the shard servers from the scenario's faults block
// must degrade the remote deployment identically to the in-process
// federation under the same seed — same answers epoch for epoch at 10%
// and 30% loss — and keep the PR 2 suite's recall floors.
func TestWireRadioFaultCrossCheck(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	const epochs = 12
	for _, tc := range []struct {
		loss  float64
		floor float64
	}{
		{0.10, 0.80},
		{0.30, 0.75},
	} {
		t.Run(fmt.Sprintf("loss=%.0f%%", tc.loss*100), func(t *testing.T) {
			cfg := &FaultConfig{Seed: 42, Loss: tc.loss, Duplicate: 0.05, Delay: 0.05}

			faultyScen := func() *Scenario {
				scen := shardedDemo(t, 2)
				scen.Faults = cfg
				return scen
			}
			inproc, err := Open(faultyScen())
			if err != nil {
				t.Fatal(err)
			}
			defer inproc.Close()
			want := runCursor(t, inproc, sql, AlgoMINT, epochs)

			addrs, _ := startWireShards(t, faultyScen(), 0)
			remote, err := OpenFederated(faultyScen(), addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			got := runCursor(t, remote, sql, AlgoMINT, epochs)

			stepEqualByteIdentical(t, "remote vs in-process under radio faults", got, want)
			var recall float64
			for e := range got {
				recall += model.Recall(got[e].Answers, got[e].Exact)
			}
			if recall /= float64(epochs); recall < tc.floor {
				t.Errorf("mean recall %.3f below floor %.2f", recall, tc.floor)
			}
		})
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

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
// in-process one at Parallel 1 and at Parallel 4, a wire shard server — assembles
// it with the one constructor (shard.New), so under an armed fault
// environment each one's durable tier records exactly the committed,
// post-fault readings: the same bytes on all three, with a node churned
// down at epoch 2 sensed for the last time in that epoch (churn fires on
// the epoch's first transmission, after its sensing).
func TestShardStackRecordsCommittedReadings(t *testing.T) {
	const (
		sql    = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
		epochs = 6
		victim = NodeID(5)
	)
	faulty := func() *Scenario {
		scen := DemoScenario()
		scen.Faults = &FaultConfig{Seed: 9, Loss: 0.1, Churn: []ChurnEvent{{Node: victim, Epoch: 2, Down: true}}}
		return scen
	}
	noEnergy := func(nodes []NodeID) []float64 { return make([]float64, len(nodes)) }
	run := func(sys *System) {
		t.Helper()
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		// A WITH HISTORY group sweeps derived readings (node-local window
		// aggregates) through the same epochs; the tap must never see them.
		derived, err := sys.Post("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid WITH HISTORY 4")
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			if _, err := cur.Step(); err != nil {
				t.Fatal(err)
			}
			if _, err := derived.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	images := make(map[string][]byte)
	for host, parallel := range map[string]int{"deterministic": 1, "live": 4} {
		sys, err := Open(faulty(), WithDataDir(t.TempDir()), WithParallel(parallel))
		if err != nil {
			t.Fatalf("%s: %v", host, err)
		}
		run(sys)
		images[host] = sys.local[0].Store().Image(noEnergy)
		sys.Close()
	}
	addrs, servers := startWireShards(t, faulty(), 0)
	remote, err := OpenFederated(faulty(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	run(remote)
	images["served"] = servers[0].Store().Image(noEnergy)

	for host, img := range images {
		if !bytes.Equal(img, images["deterministic"]) {
			t.Fatalf("%s shard's store diverged from the deterministic one", host)
		}
	}
	h := imageHistory(t, images["deterministic"])
	src, err := DemoScenario().Source()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range h.nodes {
		want := epochs
		if r.Node == victim {
			want = 3 // epochs 0, 1 and 2
		}
		if len(h.epochs[r.Node]) != want {
			t.Fatalf("node %d has %d recorded epochs %v, want %d", r.Node, len(h.epochs[r.Node]), h.epochs[r.Node], want)
		}
		// Raw, not derived: every recorded value is the node's own sensed
		// sample, whatever window aggregates the WITH HISTORY group swept.
		for i, e := range h.epochs[r.Node] {
			if raw := int64(model.ToFixed(model.Quantize(src.Sample(r.Node, e)))); h.values[r.Node][i] != raw {
				t.Fatalf("node %d epoch %d recorded %d, want the raw sensed %d", r.Node, e, h.values[r.Node][i], raw)
			}
		}
	}
	if len(h.nodes) != len(DemoScenario().Nodes) {
		t.Fatalf("store holds %d nodes, want %d", len(h.nodes), len(DemoScenario().Nodes))
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
	if got.Algorithm != "survivor" || got.Epochs != 4 {
		t.Fatalf("label/epochs not applied: %+v", got)
	}
	if got.Messages != want.Messages || got.Frames != want.Frames || got.TxBytes != want.TxBytes ||
		got.RxBytes != want.RxBytes || got.Drops != want.Drops || got.EnergyUJ != want.EnergyUJ {
		t.Fatalf("sum with shard-1 unreachable:\ngot  %+v\nwant the surviving shard's row\n     %+v", got, want)
	}
	if _, err := sys.ShardStats(); err == nil {
		t.Fatal("ShardStats hid the dead shard")
	}
}

// wireCalls reads every shard connection's call and round counters.
func wireCalls(sys *System) (calls, rounds []int64) {
	for _, m := range sys.WireMetrics() {
		calls = append(calls, m.Calls)
		rounds = append(rounds, m.Rounds)
	}
	return calls, rounds
}

// sameTraffic fails unless two captured rows agree on every traffic
// column, the energies to the bit.
func sameTraffic(t *testing.T, label string, got, want RunStats) {
	t.Helper()
	if got.Messages != want.Messages || got.Frames != want.Frames || got.TxBytes != want.TxBytes ||
		got.RxBytes != want.RxBytes || got.Drops != want.Drops || !reflect.DeepEqual(got.PerKind, want.PerKind) ||
		math.Float64bits(got.EnergyUJ) != math.Float64bits(want.EnergyUJ) ||
		math.Float64bits(got.EnergyMax) != math.Float64bits(want.EnergyMax) {
		t.Fatalf("%s:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// TestCaptureStatsRidesTheRound: kspotd's loop — step, then CaptureStats —
// plus a /stats read of every shard's row and storage block costs one wire
// call per shard per epoch, because every reply carries the shard's
// counters; and what CaptureStats sums from those rows is, at every epoch,
// exactly the in-process deployment of the same scenario's counters
// (messages, frames, bytes, drops, per-kind bytes, energies to the bit).
func TestCaptureStatsRidesTheRound(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	inproc, err := Open(shardedDemo(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	addrs, _ := startWireShards(t, shardedDemo(t, 2), 0)
	remote, err := OpenFederated(shardedDemo(t, 2), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	var curs []*Cursor
	for _, sys := range []*System{inproc, remote} {
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		curs = append(curs, cur)
	}

	calls0, rounds0 := wireCalls(remote)
	for e := 0; e < 20; e++ {
		for _, cur := range curs {
			if _, err := cur.Step(); err != nil {
				t.Fatal(err)
			}
		}
		sameTraffic(t, fmt.Sprintf("epoch %d: remote CaptureStats vs in-process", e),
			remote.CaptureStats("live", 0), inproc.CaptureStats("live", 0))
		if _, err := remote.ShardStats(); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.StorageStats(); err != nil {
			t.Fatal(err)
		}
	}
	calls1, rounds1 := wireCalls(remote)
	for i := range calls1 {
		if dc, dr := calls1[i]-calls0[i], rounds1[i]-rounds0[i]; dc != dr || dr != 20 {
			t.Fatalf("shard %d: %d calls for %d rounds over 20 epochs of step + CaptureStats + ShardStats + StorageStats, want one call per round", i, dc, dr)
		}
	}
}
