package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kspot/internal/engine"
)

// The tests run every deployment shape on the paper's 14-node demo with
// sub-second windows: they check the harness, not the system's speed.

var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

// testDaemon builds cmd/kspotd once per test binary.
func testDaemon(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "kspot-benchmark-test-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "kspotd")
		cmd := exec.Command("go", "build", "-o", builtBin, "./cmd/kspotd")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("go build: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.RemoveAll(filepath.Dir(builtBin))
	}
	os.Exit(code)
}

func smallPass(bin, tmp string) passConfig {
	return passConfig{kspotd: bin, tmp: tmp, instances: 2, window: 500 * time.Millisecond, warmup: 200 * time.Millisecond,
		budget: 3000, restarts: 2, deadline: 60 * time.Second}
}

// running lists the pids whose executable is bin.
func running(t *testing.T, bin string) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// TestSmokeEveryWorkload runs both passes of every workload shape — one
// flat daemon, a quota'd multi-tenant daemon, coordinator + 2 shard
// processes, a durable daemon killed and restarted — and requires every
// name BENCHMARK.json declares to come out exactly once, finite and
// well-formed, with the correctness gate green.
func TestSmokeEveryWorkload(t *testing.T) {
	bin := testDaemon(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			in, err := generate(w, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			pass, err := smallPass(bin, tmp).runPass(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(context.Background(), in, tmp, filepath.Join(tmp, "trace.json"), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range append(pass.Problems, tr.Problems...) {
				t.Errorf("violation: %s", p)
			}
			if pass.Failed+tr.Failed != 0 || pass.Attempted == 0 || tr.Attempted == 0 {
				t.Errorf("failed %d+%d of %d+%d attempted", pass.Failed, tr.Failed, pass.Attempted, tr.Attempted)
			}

			if len(pass.E2E) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics emitted, the dictionary has %d", len(pass.E2E), len(endToEnd))
			}
			for _, s := range endToEnd {
				m, ok := pass.E2E[s.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("end-to-end %s = %v (present %v): must be finite and non-zero on every workload", s.Name, m.Value, ok)
				}
				if m.Unit != s.Unit || !name.MatchString(s.Name) {
					t.Errorf("end-to-end %s: unit %q, dictionary %q", s.Name, m.Unit, s.Unit)
				}
			}
			// Layer metrics come from the two halves, each name from one.
			layer := metrics{}
			for n, m := range pass.Observed {
				layer[n] = m
			}
			for n, m := range tr.Layer {
				if _, dup := layer[n]; dup {
					t.Errorf("per-layer %s emitted by both passes", n)
				}
				layer[n] = m
			}
			declared := map[string]bool{"proc.build_s": true} // emitted by main, which owns the build
			for _, s := range perLayer {
				declared[s.Name] = true
			}
			for n, m := range layer {
				if !declared[n] || !name.MatchString(n) {
					t.Errorf("per-layer %s is not in the dictionary", n)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %v", n, m.Value)
				}
			}
			// What must run on this shape did run; what must not, did not.
			for n, want := range map[string]bool{
				"engine.step_us":           true,
				"topk.oracle_us":           true,
				"radio.msgs_per_epoch":     true,
				"wire.round_us":            w.Shards > 0,
				"wire.bytes_per_epoch":     w.Shards > 0,
				"wire.codec_us_per_round":  w.Shards > 0,
				"sim.transport_us":         w.Shards > 0,
				"engine.live_transport_us": w.Shards == 0,
				"storage.record_us":        w.Durable,
				"storage.recover_ms":       w.Durable,
				"kspotd.post_429_count":    w.Quota > 0,
			} {
				if got := layer[n].Value != 0; got != want {
					t.Errorf("%s = %v, want non-zero: %v", n, layer[n].Value, want)
				}
			}
			if share := layer["trace.unattributed_share"].Value; share < 0 || share > 0.5 {
				t.Errorf("trace.unattributed_share = %v", share)
			}
			if w.Quota > 0 && int(layer["kspotd.post_429_count"].Value) != in.predicted429() {
				t.Errorf("%v refusals, the quota predicts %d", layer["kspotd.post_429_count"].Value, in.predicted429())
			}
			if left := running(t, bin); len(left) != 0 {
				t.Errorf("kspotd processes outlived the pass: %v", left)
			}

			// The trace file carries the span tree: every span but a root has
			// its parent in the same epoch.
			data, err := os.ReadFile(filepath.Join(tmp, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []struct {
					ID, Parent int
					Epoch      uint32
					Name       string
				}
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			byID := map[int]uint32{}
			for _, s := range doc.Spans {
				byID[s.ID] = s.Epoch
			}
			for _, s := range doc.Spans {
				if s.Parent < 0 {
					if s.Name != spanNames[spStep] {
						t.Errorf("span %d (%s) has no parent", s.ID, s.Name)
					}
				} else if e, ok := byID[s.Parent]; !ok || e != s.Epoch {
					t.Errorf("span %d (%s, epoch %d): parent %d is in epoch %d (found %v)", s.ID, s.Name, s.Epoch, s.Parent, e, ok)
				}
			}
			if len(doc.Spans) == 0 {
				t.Error("trace file has no spans")
			}
		})
	}
}

// TestNoDaemonOutlivesAFailedRun cuts a pass short at every stage a
// deadline can hit — mid set-up, mid window — and requires that no process
// is left behind, for the multi-process shape above all.
func TestNoDaemonOutlivesAFailedRun(t *testing.T) {
	bin := testDaemon(t)
	w, _ := findWorkload("fed-wire")
	in, err := generate(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, deadline := range []time.Duration{20 * time.Millisecond, 150 * time.Millisecond, 600 * time.Millisecond} {
		cfg := smallPass(bin, t.TempDir())
		cfg.deadline = deadline
		if _, err := cfg.runPass(context.Background(), in); err == nil {
			t.Errorf("a pass with a %v deadline succeeded", deadline)
		}
		if left := running(t, bin); len(left) != 0 {
			t.Errorf("deadline %v: kspotd processes left behind: %v", deadline, left)
		}
	}
	// A daemon that never becomes ready (bad flag) is reaped too.
	ps := &procs{logDir: t.TempDir()}
	if _, err := ps.spawn(context.Background(), bin, "kspotd-http ", placement{}, "-no-such-flag"); err == nil {
		t.Error("spawn with a bad flag succeeded")
	}
	ps.killAll()
	if left := running(t, bin); len(left) != 0 {
		t.Errorf("kspotd processes left behind: %v", left)
	}
}

// TestPlacement starts a shard the way fed-wire does and reads back from
// /proc that it has one CPU and GOMAXPROCS=1, and that the generator's own
// threads kept theirs.
func TestPlacement(t *testing.T) {
	bin := testDaemon(t)
	// allowed returns the distinct CPU lists over the process's threads.
	allowed := func(pid int) string {
		tasks, err := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/status")
		if err != nil || len(tasks) == 0 {
			t.Fatalf("no threads of pid %d: %v", pid, err)
		}
		lists := map[string]bool{}
		for _, task := range tasks {
			data, err := os.ReadFile(task)
			if err != nil {
				continue // the thread ended
			}
			if m := regexp.MustCompile(`(?m)^Cpus_allowed_list:\s*(\S+)$`).FindSubmatch(data); m != nil {
				lists[string(m[1])] = true
			}
		}
		return strings.Join(slices.Sorted(maps.Keys(lists)), " ")
	}
	before := allowed(os.Getpid())
	ps := &procs{logDir: t.TempDir()}
	defer ps.killAll()
	d, err := ps.spawn(context.Background(), bin, "kspotd-wire ", placement{threads: 1, pinned: true, cpu: 1},
		"-shards", "2", "-serve-shard", "1", "-wire-addr", "127.0.0.1:0", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	if got := allowed(d.pid); regexp.MustCompile(`[ ,-]`).MatchString(got) {
		t.Errorf("pinned child may run on CPUs %s", got)
	}
	env, err := os.ReadFile("/proc/" + strconv.Itoa(d.pid) + "/environ")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(^|\x00)GOMAXPROCS=1(\x00|$)`).Match(env) {
		t.Error("child's environment has no GOMAXPROCS=1")
	}
	if after := allowed(os.Getpid()); after != before {
		t.Errorf("the generator's CPUs went from %s to %s", before, after)
	}
}

// TestSpanSharesSumToRoot checks the attribution on a hand-built tree:
// sequential children, two children overlapping in parallel, a grandchild,
// and an async span that must take no share.
func TestSpanSharesSumToRoot(t *testing.T) {
	tr := newTracer(1, 16)
	put := func(kind spanKind, parent int32, start, end int64) int32 {
		tr.spans = append(tr.spans, span{Kind: kind, Shard: -1, Parent: parent, Start: start, End: end})
		return int32(len(tr.spans) - 1)
	}
	root := put(spStep, -1, 0, 1000)
	sched := put(spSched, root, 100, 700)
	a := put(spAcquire, sched, 200, 500)  // alone on [200,300), shared on [300,500)
	put(spLiveTransport, a, 250, 450)     // grandchild: half of it inside the shared stretch
	put(spMerge, sched, 300, 600)         // shared on [300,500), alone on [500,600)
	pub := put(spPublish, root, 800, 900) // sequential sibling
	put(spDeliver, pub, 800, 5000)        // async: outlives the root, takes nothing
	put(spOracle, root, 700, 800)

	an := tr.anatomy()
	if len(an) != 1 {
		t.Fatalf("%d epochs", len(an))
	}
	ea := an[0]
	want := map[spanKind]float64{
		spStep:          200,       // [0,100) and [900,1000)
		spSched:         200,       // [100,200) and [600,700)
		spAcquire:       50 + 25,   // [200,250) alone; [450,500) at half weight
		spLiveTransport: 50 + 75,   // [250,300) alone; [300,450) at half weight
		spMerge:         100 + 100, // [300,500) at half weight; [500,600) alone
		spOracle:        100,
		spPublish:       100,
	}
	sum := 0.0
	for k, v := range ea.self {
		sum += v
		if math.Abs(v-want[spanKind(k)]) > 1e-9 {
			t.Errorf("%s: self %v, want %v", spanNames[k], v, want[spanKind(k)])
		}
	}
	if math.Abs(sum-ea.root) > 1e-9 || ea.root != 1000 {
		t.Errorf("shares sum to %v, root is %v", sum, ea.root)
	}
	if ea.n[spDeliver] != 1 || ea.dur[spDeliver] != 4200 || ea.self[spDeliver] != 0 {
		t.Errorf("async span: n %d dur %v self %v", ea.n[spDeliver], ea.dur[spDeliver], ea.self[spDeliver])
	}
	if got := ea.plain[spAcquire]; got != 100 { // 300 long, minus its 200-long transport call
		t.Errorf("plain self of the acquisition = %v, want 100", got)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {95, 48}, {10, 14}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample has a percentile")
	}
	m := metrics{}
	m.set("epoch_ms_p50", percentile(s, 50), len(s))
	if m["epoch_ms_p50"].Samples != 5 || m["epoch_ms_p50"].Unit != "ms" {
		t.Errorf("sample count / unit not carried: %+v", m["epoch_ms_p50"])
	}
}

// TestQuotaArithmetic replays the generated posts through the real
// admission controller: the generator's predicted verdicts must be the
// controller's, at the default seed, the held-out seed and a few more.
func TestQuotaArithmetic(t *testing.T) {
	w, _ := findWorkload("flat-tenants")
	for _, seed := range []int64{1, 7, 2, 3, 4, 5} {
		in, err := generate(w, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		adm := engine.NewAdmission(engine.AdmissionConfig{TenantQuota: w.Quota})
		if adm.Admit("") != nil {
			t.Fatal("primary refused")
		}
		if len(in.Setup) != w.Queries-1 {
			t.Fatalf("seed %d: %d set-up posts", seed, len(in.Setup))
		}
		keys := map[string]int{}
		for _, p := range append([]post{in.Primary}, in.Setup...) {
			if p.Want != 200 {
				t.Fatalf("seed %d: a set-up post expects %d", seed, p.Want)
			}
			keys[p.SQL[len("SELECT TOP 1 roomid, "):]]++
		}
		for k, n := range keys {
			if n != w.Queries/w.SenseKeys {
				t.Errorf("seed %d: %d queries on %q, want %d", seed, n, k, w.Queries/w.SenseKeys)
			}
		}
		for _, p := range in.Setup {
			if adm.Admit(p.Tenant) != nil {
				t.Fatalf("seed %d: set-up post for %q refused", seed, p.Tenant)
			}
		}
		refused := 0
		for i, p := range in.Phase {
			status := 200
			if adm.Admit(p.Tenant) != nil {
				status = 429
				refused++
			}
			if status != p.Want {
				t.Fatalf("seed %d post %d (%q): controller says %d, generator predicted %d", seed, i, p.Tenant, status, p.Want)
			}
		}
		// 4 tenants hold 32+32+32+31 and may each reach 48: 65 more fit.
		if refused != in.predicted429() || refused != w.Posts-65 {
			t.Errorf("seed %d: %d refusals, predicted %d, arithmetic says %d", seed, refused, in.predicted429(), w.Posts-65)
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same inputs, another
// seed gives others.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, _ := generate(w, 3, true)
		b, _ := generate(w, 3, true)
		c, _ := generate(w, 4, true)
		ja, _ := json.Marshal([]any{a.Scenario, a.Setup, a.Phase, a.Watch})
		jb, _ := json.Marshal([]any{b.Scenario, b.Setup, b.Phase, b.Watch})
		jc, _ := json.Marshal([]any{c.Scenario, c.Setup, c.Phase, c.Watch})
		if string(ja) != string(jb) {
			t.Errorf("%s: seed 3 generated two different inputs", w.Name)
		}
		if string(ja) == string(jc) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", w.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, scale map[string]float64) string {
		f := resultFile{Meta: fingerprint(1, 15), Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			r := &workloadResult{EndToEnd: metrics{}, Correct: true, verdict: verdict{Attempted: 10}}
			for _, s := range endToEnd {
				v := 100.0
				if k, ok := scale[w.Name+"/"+s.Name]; ok {
					v *= k
				}
				r.EndToEnd.set(s.Name, v, 0)
			}
			f.Workloads[w.Name] = r
		}
		data, _ := json.Marshal(f)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", nil)
	for _, c := range []struct {
		name  string
		scale map[string]float64
		worse bool
	}{
		{"same", nil, false},
		{"inside the bound", map[string]float64{"fed-wire/epoch_ms_p50": 1.24, "flat-sweep/epochs_per_s": 0.76, "flat-durable/egress_bytes_per_epoch": 1.04}, false},
		{"lower-is-better past its bound", map[string]float64{"fed-wire/epoch_ms_p50": 1.26}, true},
		{"higher-is-better past its bound", map[string]float64{"flat-sweep/epochs_per_s": 0.74}, true},
		{"a tight bound", map[string]float64{"flat-durable/egress_bytes_per_epoch": 1.06}, true},
		{"better, by a lot", map[string]float64{"flat-sweep/epochs_per_s": 3, "flat-durable/recovery_s": 0.1}, false},
	} {
		worse, err := compareFiles(io.Discard, base, write("b.json", c.scale))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v", c.name, worse, c.worse)
		}
	}
}
