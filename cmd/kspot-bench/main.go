// Command kspot-bench regenerates the reproduction's experiments (the
// tables and figures indexed in DESIGN.md and recorded in EXPERIMENTS.md).
//
// Usage:
//
//	kspot-bench -list             # list experiments
//	kspot-bench -exp e3           # run one experiment
//	kspot-bench -exp all          # run everything (the default)
//	kspot-bench -exp e7 -scale .2 # quick run at reduced size
//
// Benchmark trajectory (machine-readable: BENCH.json, one file keyed by
// run name — pre-pr3-baseline, pr3 … pr10, then whatever -json-run names;
// EXPERIMENTS.md's "Benchmark trajectory" section says what each recorded
// run added):
//
//	kspot-bench -json -scale 0.1            # measure and merge into BENCH.json as run "local"
//	kspot-bench -json -json-run pr15        # record under a run name of your choosing
//	kspot-bench -json -json-out other.json  # write elsewhere
//	kspot-bench -json -parallel 8           # add the parallel-sweep speedup leg
//
// -json measures the hot-path micro-benchmarks (ns/op, allocs/op, tx_bytes
// and messages per epoch), the µs-per-node-per-epoch scale series (the big
// sizes are gated on -scale; -parallel > 1 adds the parallel-vs-sequential
// speedup entry) plus one timed pass of every experiment, and merges the
// result into the trajectory file without disturbing the runs already
// recorded there.
//
// Profiling the harness itself:
//
//	kspot-bench -exp e5 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"kspot/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (e1..e14) or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		scale      = flag.Float64("scale", 1.0, "size scale factor in (0,1], for quick runs")
		parallel   = flag.Int("parallel", 1, "epoch-sweep worker bound of the parallel benchmark leg; 1 = sequential measurements only")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the run to this file")
		emitJSON   = flag.Bool("json", false, "measure benchmarks and merge into the JSON trajectory file")
		jsonOut    = flag.String("json-out", "BENCH.json", "trajectory file -json writes")
		jsonRun    = flag.String("json-run", "local", "run name -json records the measurement under")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	cfg := bench.RunConfig{Scale: *scale, Parallel: *parallel}
	if *emitJSON {
		if err := bench.WriteJSON(os.Stdout, *jsonOut, *jsonRun, cfg); err != nil {
			fail(err)
		}
		fmt.Printf("wrote run %q (scale %v, parallel %d) to %s\n", *jsonRun, *scale, *parallel, *jsonOut)
		return
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	run := func(e bench.Experiment) error {
		start := time.Now()
		fmt.Printf("## %s — %s\n", e.ID, e.Title)
		if err := e.Run(os.Stdout, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			if err := run(e); err != nil {
				fail(err)
			}
		}
		return
	}
	e, ok := bench.Get(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "kspot-bench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	if err := run(e); err != nil {
		fail(err)
	}
}

// fail prints the error and exits. Deferred profile writers do not run on
// this path — a failed run's profiles would be misleading anyway.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "kspot-bench:", err)
	os.Exit(1)
}
