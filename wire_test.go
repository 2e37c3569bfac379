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
	"net"
	"os"
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
		flat := runCursor(t, flatSys, sql, algo, false, epochs)
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				scen := shardedDemo(t, shards)
				inproc, err := Open(scen)
				if err != nil {
					t.Fatal(err)
				}
				defer inproc.Close()
				inprocRes := runCursor(t, inproc, sql, algo, false, epochs)

				addrs, _ := startWireShards(t, shardedDemo(t, shards), 0)
				remote, err := OpenFederated(shardedDemo(t, shards), addrs)
				if err != nil {
					t.Fatal(err)
				}
				defer remote.Close()
				if !remote.Remote() || remote.Shards() != shards {
					t.Fatalf("remote system misconfigured: remote=%v shards=%d", remote.Remote(), remote.Shards())
				}
				got := runCursor(t, remote, sql, algo, false, epochs)

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
		res := runCursor(t, sys, sql, AlgoMINT, false, epochs)
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
		WithWireTimeout(250*time.Millisecond),
		WithWireRetry(10, 2*time.Millisecond),
	)
	stepEqualByteIdentical(t, "faulty vs clean sockets", faulty, clean)
	if !bytes.Equal(answerBytes(faultyHist), answerBytes(cleanHist)) {
		t.Fatalf("historic diverged under frame faults: %v vs %v", faultyHist, cleanHist)
	}
	var retried int64
	for _, cl := range sys.remotes {
		retried += cl.Retried()
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
			want := runCursor(t, inproc, sql, AlgoMINT, false, epochs)

			addrs, _ := startWireShards(t, faultyScen(), 0)
			remote, err := OpenFederated(faultyScen(), addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			got := runCursor(t, remote, sql, AlgoMINT, false, epochs)

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
		WithWireTimeout(200*time.Millisecond), WithWireRetry(1, 5*time.Millisecond))
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
	// answers (stats RPC on the live connection).
	if _, err := sys.remotes[0].Stats(); err != nil {
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
		if _, err := cur.Step(); err == nil {
			t.Fatalf("round %d: Step after Close succeeded", round)
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
// time — wrong address count, node-count mismatch, live/fault options on
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
	if _, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", WithLive()); err == nil {
		t.Fatal("WithLive accepted on a remote deployment")
	}
	if _, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
		WithFaults(FaultConfig{Seed: 1, Loss: 0.1})); err == nil {
		t.Fatal("WithFaults accepted on a remote deployment")
	}
	if _, err := sys.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", Algorithm("bogus")); err == nil {
		t.Fatal("bogus algorithm accepted on a remote deployment")
	}
}
