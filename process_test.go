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

const scaleHistoricSQL = "SELECT TOP 4 epoch, AVG(sound) FROM sensors WITH HISTORY 16"

// scaleRow is the conformance workload on scale-1000 split 4 ways:
// snapshot epochs, then a historic execution.
func scaleRow(name string, wire bool) row {
	return row{name: name, world: "scale-1000", shards: 4, parallel: runtime.NumCPU(), wire: wire, long: true, epochs: 3,
		queries: []rowQuery{{scaleSQL, AlgoAuto}, {scaleHistoricSQL, AlgoAuto}}}
}

// TestWireScale1000LoopbackConformance: scale-1000 split 4 ways over
// loopback sockets — in-process servers, so client, server and the merge
// all run under -race in CI — answers like the flat run for both the
// snapshot stream and historic TOP-K, with coordinator-tier and per-shard
// counters equal to the in-process federation's.
func TestWireScale1000LoopbackConformance(t *testing.T) {
	runRows(t, []row{scaleRow("in-process", false), scaleRow("loopback", true)})
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
// plus the running command — callers kill it directly for crash tests.
func spawnShardProc(t *testing.T, bin, scenPath string, shard int, wireAddr string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	return startKspotd(t, bin, "kspotd-wire ", append([]string{
		"-scenario", scenPath,
		"-serve-shard", strconv.Itoa(shard),
		"-wire-addr", wireAddr,
		"-parallel", strconv.Itoa(runtime.NumCPU()),
	}, extra...)...)
}

// startKspotd starts kspotd with args and returns the address it announced
// on the stdout line beginning with announce, plus the running command; a
// cleanup SIGTERMs whatever is still alive at test end.
func startKspotd(t *testing.T, bin, announce string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning kspotd %v: %v", args, err)
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
	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), announce); ok {
				lineCh <- addr
				break
			}
		}
		close(lineCh)
	}()
	select {
	case addr, ok := <-lineCh:
		if !ok || addr == "" {
			t.Fatalf("kspotd %v exited before announcing its address", args)
		}
		return addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("kspotd %v did not announce its address", args)
	}
	return "", nil
}

// spawnScale1000 builds kspotd, saves scale-1000 split 4 ways and spawns
// one -serve-shard process per shard with the extra flags; it returns the
// scenario, its file, the binary and each shard's address and command.
func spawnScale1000(t *testing.T, extra ...string) (*Scenario, string, string, []string, []*exec.Cmd) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns subprocesses in -short mode")
	}
	dir := t.TempDir()
	bin := buildKspotd(t, dir)
	scen := scaleRow("", true).scenario(t)
	scenPath := filepath.Join(dir, "scale-1000x4.json")
	if err := scen.Save(scenPath); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(scen.Shards))
	cmds := make([]*exec.Cmd, len(scen.Shards))
	for i := range scen.Shards {
		addrs[i], cmds[i] = spawnShardProc(t, bin, scenPath, i, "127.0.0.1:0", extra...)
	}
	return scen, scenPath, bin, addrs, cmds
}

// TestProcessFederatedScale1000 is the N+1-process conformance pin: build
// the kspotd binary, spawn four real -serve-shard processes on loopback,
// coordinate them from this process via OpenFederated, and require the
// answers byte-identical to the flat simulation with every counter tier
// reconciled against the in-process federation.
func TestProcessFederatedScale1000(t *testing.T) {
	scen, _, _, addrs, _ := spawnScale1000(t)
	r := scaleRow("processes", true)
	remote, err := OpenFederated(scen, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.Shards() != len(addrs) {
		t.Fatalf("remote system has %d shards, want %d", remote.Shards(), len(addrs))
	}
	got := drive(t, remote, nil, r)
	label := fmt.Sprintf("%d-process federation", len(addrs)+1)
	compare(t, label+" vs flat", got, memo(t, r.reference(t)), false)
	compare(t, label+" vs in-process", got, memo(t, r.twin()), true)
}

// TestProcessShardCrashRestartConformance is the durability pin: four
// real -serve-shard processes run with -data-dir, one is SIGKILLed between
// epochs with the next Step already issued against it, and a replacement
// process restarted from the same data directory at the same address picks
// the session up — journaled nonce (no session reset), replayed attaches,
// recovered windows and energy checkpoint — so the full answer stream AND
// the federated historic run stay byte-identical to the flat simulation.
func TestProcessShardCrashRestartConformance(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	scen, scenPath, bin, addrs, cmds := spawnScale1000(t, "-data-dir", dataDir)

	r := scaleRow("crash-restart", true)
	flat := memo(t, r.reference(t))

	// A generous retry budget rides out the restart window: attempts
	// against the dead socket fail fast and back off until the replacement
	// binds the same port.
	remote, err := OpenFederated(scen, addrs, withWireRetry(10, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	cur, err := remote.Post(scaleSQL)
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

	// The federated historic run on the recovered deployment equals the
	// flat one too.
	hcur, err := remote.Post(scaleHistoricSQL)
	if err != nil {
		t.Fatal(err)
	}
	historic, err := hcur.Run()
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "crash-restart vs flat", outcome{steps: [][]StepResult{steps}, historic: [][]Answer{historic}}, flat, false)

	// Every shard — including the restarted one — checkpointed all three
	// epochs into a real on-disk shard log.
	ss, err := remote.StorageStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != len(addrs) {
		t.Fatalf("storage rows: %d", len(ss))
	}
	for i, st := range ss {
		if !st.HasEpoch || st.LastEpoch != Epoch(r.epochs-1) {
			t.Fatalf("shard %d checkpoint: %+v", i, st)
		}
		if st.Segments == 0 || st.Bytes == 0 {
			t.Fatalf("shard %d has no durable log: %+v", i, st)
		}
	}
}
