// Command benchmark is KSpot's end-to-end load harness: it builds kspotd,
// runs the named workloads against real kspotd processes with tracing off
// (the end-to-end metrics), runs an in-process traced pass of the same
// workloads (the per-layer metrics), checks correctness, and prints every
// metric by name with its unit. See README.md for the metric dictionary.
//
//	bash benchmark/run.sh                         # all workloads, both passes → benchmark/out/result-seed1.json
//	bash benchmark/run.sh --workload fed-wire --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh -compare A.json B.json  # non-zero when B is worse than A beyond a bound
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout the daemon is built from")
		workName = flag.String("workload", "", "run one workload and print the driver's one-line JSON result (default: all workloads, both passes)")
		seed     = flag.Int64("seed", 1, "workload seed: scenario data, every query's K, sense key and tenant derive from it (7 is the held-out seed)")
		seconds  = flag.Float64("seconds", 20, "measured window per workload, seconds")
		traced   = flag.Int("trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
		out      = flag.String("out", "", "result file of a full pass (default benchmark/out/result-seed<seed>.json)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	runtime.GOMAXPROCS(loadgenProcs())

	// SIGINT/SIGTERM cancel the run; every exit path below goes through the
	// deferred clean-up, which kills the children and removes the temp dir.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, *root, *workName, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// env is one invocation's environment: where things are built, written and
// cleaned up.
type env struct {
	root    string
	kspotd  string
	buildS  float64
	tmp     string // removed at exit
	outDir  string // benchmark/out: traces and result files, git-ignored
	seconds float64
	seed    int64
}

func run(ctx context.Context, root, workName string, seed int64, seconds float64, traced bool, out string) (code int, err error) {
	root, err = filepath.Abs(root)
	if err != nil {
		return 1, err
	}
	e := &env{root: root, seconds: seconds, seed: seed, outDir: filepath.Join(root, "benchmark", "out")}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return 1, err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return 1, err
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return 1, err
	}
	defer os.RemoveAll(e.tmp)
	if err := e.buildDaemon(ctx, filepath.Join(build, "bin", "kspotd")); err != nil {
		return 1, err
	}

	if workName != "" {
		w, ok := findWorkload(workName)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q (have %s)", workName, strings.Join(workloadNames(), ", "))
		}
		r, err := e.runWorkload(ctx, w, !traced, traced)
		if err != nil {
			return 1, err
		}
		r.log(os.Stderr)
		line, err := json.Marshal(r.driverLine(traced))
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		if !r.Correct {
			return 1, nil
		}
		return 0, nil
	}

	// Full pass: every workload, untraced then traced, one result file.
	file := resultFile{Meta: fingerprint(seed, seconds), Workloads: map[string]*workloadResult{}}
	code = 0
	for _, w := range workloads {
		r, err := e.runWorkload(ctx, w, true, true)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.Name, err)
		}
		r.log(os.Stdout)
		file.Workloads[w.Name] = r
		if !r.Correct {
			code = 1
		}
	}
	if out == "" {
		out = filepath.Join(e.outDir, fmt.Sprintf("result-seed%d.json", seed))
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("result file: %s\n", out)
	return code, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// buildDaemon builds cmd/kspotd from the checkout, once per invocation.
func (e *env) buildDaemon(ctx context.Context, bin string) error {
	t := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/kspotd")
	cmd.Dir = e.root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/kspotd in %s: %v\n%s", e.root, err, outp)
	}
	e.kspotd, e.buildS = bin, time.Since(t).Seconds()
	return nil
}

// workloadResult is one workload's numbers in a result file.
type workloadResult struct {
	EndToEnd metrics `json:"end_to_end,omitempty"`
	PerLayer metrics `json:"per_layer,omitempty"`
	Host     metrics `json:"host,omitempty"` // an untraced-only run's host.* readings: what its times were corrected by
	Correct  bool    `json:"correct"`
	verdict

	name string
}

// runWorkload runs one workload. The pass against real daemons always runs:
// it yields the end-to-end metrics (kept when untraced is asked for) and
// the layer metrics only observable from outside a daemon (kept when traced
// is asked for, beside the in-process traced run).
func (e *env) runWorkload(ctx context.Context, w workload, untraced, traced bool) (*workloadResult, error) {
	in, err := generate(w, e.seed, false)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.tmp, w.Name+"-")
	if err != nil {
		return nil, err
	}
	spreadSubdirs(tmp) // the data dirs are made in it
	defer func() {
		os.RemoveAll(tmp)
		if w.Durable {
			syscall.Sync() // pay for deleting the data dirs here, not in the next run's set-up
		}
	}()
	pass, err := defaultPass(e.kspotd, tmp, e.seconds, w).runPass(ctx, in)
	if err != nil {
		return nil, err
	}
	r := &workloadResult{name: w.Name, verdict: pass.verdict}
	if untraced {
		r.EndToEnd = pass.E2E
	}
	if !traced {
		r.Host = metrics{"host.speed": pass.Observed["host.speed"], "host.yardstick_ms": pass.Observed["host.yardstick_ms"]}
	}
	if traced {
		r.PerLayer = pass.Observed
		r.PerLayer.set("proc.build_s", e.buildS, 0)
		tr, err := runTraced(ctx, in, tmp, filepath.Join(e.outDir, "trace-"+w.Name+".json"), false)
		if err != nil {
			return nil, err
		}
		for name, m := range tr.Layer {
			r.PerLayer[name] = m
		}
		r.add(tr.verdict)
		for _, s := range perLayer {
			if _, ok := r.PerLayer[s.Name]; !ok {
				r.PerLayer.set(s.Name, 0, 0) // the layer does not run on this workload
			}
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
func (r *workloadResult) driverLine(traced bool) map[string]any {
	m := r.EndToEnd
	if traced {
		m = r.PerLayer
	}
	vals := make(map[string]any, len(m))
	for name, v := range m {
		vals[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": vals}
}

// log prints the workload's metrics by name, with units and sample counts.
func (r *workloadResult) log(f *os.File) {
	fmt.Fprintf(f, "== %s: correct=%v attempted=%d failed=%d\n", r.name, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(f, "   ! %s\n", p)
	}
	for _, m := range []metrics{r.EndToEnd, r.Host, r.PerLayer} {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := m[name]
			line := fmt.Sprintf("   %-30s %14.4f %s", name, v.Value, v.Unit)
			if v.Samples > 0 {
				line += fmt.Sprintf("  (n=%d)", v.Samples)
			}
			fmt.Fprintln(f, line)
		}
	}
}
