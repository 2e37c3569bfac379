package kspot

// Process-level conformance for the wire substrate: the scale-1000
// benchmark deployment split 4 ways must answer byte-identically to the
// flat simulation whether the shards are in-process goroutine servers on
// loopback sockets (TestWireScale1000LoopbackConformance — the whole
// protocol under the race detector) or four real kspotd -serve-shard OS
// processes driven by this test as the coordinator
// (TestProcessFederatedScale1000 — N+1 processes, the deployment shape
// the paper's federated sites would run).

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

const (
	scaleSnapshotSQL = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	scaleHistoricSQL = "SELECT TOP 4 epoch, AVG(sound) FROM sensors WITH HISTORY 16"
	scaleEpochs      = 3
)

// scaleRun is one deployment's answers and counters for the conformance
// workload: snapshot epochs, then a historic execution.
type scaleRun struct {
	steps    []StepResult
	historic []Answer
	fed      FederationTraffic
	shards   []RunStats
}

// runScaleWorkload drives the conformance workload on an opened system
// and snapshots its counters.
func runScaleWorkload(t *testing.T, sys *System) scaleRun {
	t.Helper()
	var run scaleRun
	cur, err := sys.Post(scaleSnapshotSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < scaleEpochs; i++ {
		res, err := cur.Step()
		if err != nil {
			t.Fatal(err)
		}
		run.steps = append(run.steps, res)
	}
	hcur, err := sys.Post(scaleHistoricSQL)
	if err != nil {
		t.Fatal(err)
	}
	if run.historic, err = hcur.Run(); err != nil {
		t.Fatal(err)
	}
	run.fed = sys.FederationStats()
	if run.shards, err = sys.ShardStats(); err != nil {
		t.Fatal(err)
	}
	return run
}

// checkScaleConformance pins a federated run — in-process or remote —
// against the flat run and, when a peer federated run is given, against
// its coordinator-tier and per-shard counters.
func checkScaleConformance(t *testing.T, label string, got scaleRun, flat scaleRun, peer *scaleRun) {
	t.Helper()
	stepEqualByteIdentical(t, label+" snapshot vs flat", got.steps, flat.steps)
	for e := range got.steps {
		if !got.steps[e].Correct {
			t.Fatalf("%s epoch %d: answers %v diverged from oracle %v", label, e, got.steps[e].Answers, got.steps[e].Exact)
		}
	}
	if !bytes.Equal(answerBytes(got.historic), answerBytes(flat.historic)) {
		t.Fatalf("%s historic %v, flat %v", label, got.historic, flat.historic)
	}
	if peer == nil {
		return
	}
	if got.fed != peer.fed {
		t.Fatalf("%s coordinator tier diverged: %+v vs %+v", label, got.fed, peer.fed)
	}
	if len(got.shards) != len(peer.shards) {
		t.Fatalf("%s: %d shard rows vs %d", label, len(got.shards), len(peer.shards))
	}
	for i := range got.shards {
		g, p := got.shards[i], peer.shards[i]
		if g.Algorithm != p.Algorithm || g.Messages != p.Messages || g.Frames != p.Frames ||
			g.TxBytes != p.TxBytes || g.RxBytes != p.RxBytes || g.EnergyUJ != p.EnergyUJ {
			t.Fatalf("%s shard %d counters diverged:\ngot  %+v\npeer %+v", label, i, g, p)
		}
	}
}

func scale1000Flat(t *testing.T) scaleRun {
	t.Helper()
	scen, err := ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(scen, WithParallel(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	return runScaleWorkload(t, sys)
}

func scale1000Sharded(t *testing.T) *Scenario {
	t.Helper()
	scen, err := ScaleScenarioShards(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

// TestWireScale1000LoopbackConformance: scale-1000 split 4 ways over
// loopback sockets — in-process servers, so client, server and the merge
// all run under -race in CI — byte-identical to the flat run for both the
// snapshot stream and historic TOP-K, with coordinator-tier and per-shard
// counters equal to the in-process federation.
func TestWireScale1000LoopbackConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1000 conformance in -short mode")
	}
	flat := scale1000Flat(t)

	inprocSys, err := Open(scale1000Sharded(t), WithParallel(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	defer inprocSys.Close()
	inproc := runScaleWorkload(t, inprocSys)
	checkScaleConformance(t, "in-process federation", inproc, flat, nil)

	addrs, _ := startWireShards(t, scale1000Sharded(t), runtime.NumCPU())
	remote, err := OpenFederated(scale1000Sharded(t), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	got := runScaleWorkload(t, remote)
	checkScaleConformance(t, "loopback federation", got, flat, &inproc)
}

// buildKspotd builds the kspotd binary into dir and returns its path.
func buildKspotd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "kspotd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/kspotd").CombinedOutput(); err != nil {
		t.Fatalf("building kspotd: %v\n%s", err, out)
	}
	return bin
}

// spawnShardProc starts one kspotd -serve-shard process listening on
// wireAddr (port 0 picks one) and returns the bound address it announced
// plus the running command — callers kill it directly for crash tests;
// a cleanup SIGTERMs whatever is still alive at test end.
func spawnShardProc(t *testing.T, bin, scenPath string, shard int, wireAddr string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{
		"-scenario", scenPath,
		"-serve-shard", strconv.Itoa(shard),
		"-wire-addr", wireAddr,
		"-parallel", strconv.Itoa(runtime.NumCPU()),
	}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning shard %d: %v", shard, err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	// The shard prints "kspotd-wire <addr>" once it listens.
	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "kspotd-wire ") {
				lineCh <- strings.TrimPrefix(sc.Text(), "kspotd-wire ")
				break
			}
		}
		close(lineCh)
	}()
	select {
	case addr, ok := <-lineCh:
		if !ok || addr == "" {
			t.Fatalf("shard %d exited before announcing its address", shard)
		}
		return addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("shard %d did not announce its address", shard)
	}
	return "", nil
}

// TestProcessFederatedScale1000 is the N+1-process conformance pin: build
// the kspotd binary, spawn four real -serve-shard processes on loopback,
// coordinate them from this process via OpenFederated, and require the
// answers byte-identical to the flat simulation with every counter tier
// reconciled against the in-process federation.
func TestProcessFederatedScale1000(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses in -short mode")
	}
	dir := t.TempDir()
	bin := buildKspotd(t, dir)

	scen := scale1000Sharded(t)
	scenPath := filepath.Join(dir, "scale-1000x4.json")
	if err := scen.Save(scenPath); err != nil {
		t.Fatal(err)
	}

	const shards = 4
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		addrs[i], _ = spawnShardProc(t, bin, scenPath, i, "127.0.0.1:0")
	}

	flat := scale1000Flat(t)
	inprocSys, err := Open(scale1000Sharded(t), WithParallel(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	defer inprocSys.Close()
	inproc := runScaleWorkload(t, inprocSys)

	remote, err := OpenFederated(scen, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.Shards() != shards {
		t.Fatalf("remote system has %d shards, want %d", remote.Shards(), shards)
	}
	got := runScaleWorkload(t, remote)
	checkScaleConformance(t, fmt.Sprintf("%d-process federation", shards+1), got, flat, &inproc)
}

// TestProcessShardCrashRestartConformance is the durability pin: four
// real -serve-shard processes run with -data-dir, one is SIGKILLed between
// epochs with the next Step already issued against it, and a replacement
// process restarted from the same data directory at the same address picks
// the session up — journaled nonce (no session reset), replayed attaches,
// recovered windows and energy checkpoint — so the full answer stream AND
// the federated historic run stay byte-identical to the flat simulation.
func TestProcessShardCrashRestartConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses in -short mode")
	}
	dir := t.TempDir()
	bin := buildKspotd(t, dir)

	scen := scale1000Sharded(t)
	scenPath := filepath.Join(dir, "scale-1000x4.json")
	if err := scen.Save(scenPath); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "data")

	const shards = 4
	addrs := make([]string, shards)
	cmds := make([]*exec.Cmd, shards)
	for i := 0; i < shards; i++ {
		addrs[i], cmds[i] = spawnShardProc(t, bin, scenPath, i, "127.0.0.1:0", "-data-dir", dataDir)
	}

	flat := scale1000Flat(t)

	// A generous retry budget rides out the restart window: attempts
	// against the dead socket fail fast and back off until the replacement
	// binds the same port.
	remote, err := OpenFederated(scen, addrs, withWireRetry(10, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	cur, err := remote.Post(scaleSnapshotSQL)
	if err != nil {
		t.Fatal(err)
	}
	var steps []StepResult
	res, err := cur.Step() // epoch 0 on the original processes
	if err != nil {
		t.Fatal(err)
	}
	steps = append(steps, res)

	// kill -9 one shard — no shutdown path runs; durability is whatever
	// the per-epoch log and journal flushes already put on disk.
	const victim = 2
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[victim].Wait()

	// Issue the next epoch's Step BEFORE the replacement exists: it must
	// retry against the dead address while the restart is in flight, then
	// complete on the recovered shard.
	type stepOut struct {
		res StepResult
		err error
	}
	ch := make(chan stepOut, 1)
	go func() {
		r, err := cur.Step() // epoch 1, spanning the crash
		ch <- stepOut{r, err}
	}()
	time.Sleep(300 * time.Millisecond) // let the step hit the dead socket
	addrs[victim], cmds[victim] = spawnShardProc(t, bin, scenPath, victim, addrs[victim], "-data-dir", dataDir)
	out := <-ch
	if out.err != nil {
		t.Fatalf("step spanning the crash: %v", out.err)
	}
	steps = append(steps, out.res)

	res, err = cur.Step() // epoch 2 on the recovered deployment
	if err != nil {
		t.Fatal(err)
	}
	steps = append(steps, res)

	stepEqualByteIdentical(t, "crash-restart snapshot vs flat", steps, flat.steps)
	for e := range steps {
		if !steps[e].Correct {
			t.Fatalf("epoch %d: answers %v diverged from oracle %v", e, steps[e].Answers, steps[e].Exact)
		}
	}

	// The federated historic run on the recovered deployment equals the
	// flat one.
	hcur, err := remote.Post(scaleHistoricSQL)
	if err != nil {
		t.Fatal(err)
	}
	historic, err := hcur.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answerBytes(historic), answerBytes(flat.historic)) {
		t.Fatalf("crash-restart historic %v, flat %v", historic, flat.historic)
	}

	// Every shard — including the restarted one — checkpointed all three
	// epochs into a real on-disk shard log.
	ss, err := remote.StorageStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != shards {
		t.Fatalf("storage rows: %d", len(ss))
	}
	for i, st := range ss {
		if !st.HasEpoch || st.LastEpoch != scaleEpochs-1 {
			t.Fatalf("shard %d checkpoint: %+v", i, st)
		}
		if st.Segments == 0 || st.Bytes == 0 {
			t.Fatalf("shard %d has no durable log: %+v", i, st)
		}
	}
}
