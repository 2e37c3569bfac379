// Command kspot-bench regenerates the reproduction's experiments (the
// tables and figures indexed in DESIGN.md and recorded in EXPERIMENTS.md).
//
// Usage:
//
//	kspot-bench -exp e3           # run one experiment
//	kspot-bench -exp all          # run everything (the default)
//	kspot-bench -exp e7 -scale .2 # quick run at reduced size
//
// Benchmark trajectory (machine-readable: BENCH.json, one file keyed by run
// name; EXPERIMENTS.md's "Benchmark trajectory" section says what each
// recorded run added and which rows are frozen history):
//
//	kspot-bench -json -scale 0.1            # measure and merge into BENCH.json as run "local"
//	kspot-bench -json -json-run pr21        # record under a run name of your choosing
//	kspot-bench -json -json-out other.json  # write elsewhere
//	kspot-bench -json -parallel 8           # add the parallel-sweep speedup leg
//
// -json measures the in-process micro table (internal/bench.Micros: the
// hot-path micros and the µs-per-node-per-epoch scale series, whose big
// sizes are gated on -scale; -parallel > 1 adds the parallel-vs-sequential
// speedup entry), each micro sampled five times and recorded as median +
// MAD with the domain metrics its body reports, plus one timed pass of
// every experiment and the host's fingerprint, and merges the run into the
// trajectory file without touching the runs already recorded there. The
// same bodies run under `go test -bench`, which is also how to profile one:
//
//	go test -run '^$' -bench 'Experiment/e5$' -cpuprofile cpu.out -memprofile mem.out .
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kspot/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (e1..e14) or 'all'")
		scale    = flag.Float64("scale", 1.0, "size scale factor in (0,1], for quick runs")
		parallel = flag.Int("parallel", 1, "epoch-sweep worker bound of the parallel benchmark leg; 1 = sequential measurements only")
		emitJSON = flag.Bool("json", false, "measure benchmarks and merge into the JSON trajectory file")
		jsonOut  = flag.String("json-out", "BENCH.json", "trajectory file -json writes")
		jsonRun  = flag.String("json-run", "local", "run name -json records the measurement under")
	)
	flag.Parse()

	cfg := bench.RunConfig{Scale: *scale, Parallel: *parallel}
	if *emitJSON {
		if err := bench.WriteJSON(os.Stdout, *jsonOut, *jsonRun, cfg); err != nil {
			fail(err)
		}
		fmt.Printf("wrote run %q (scale %v, parallel %d) to %s\n", *jsonRun, *scale, *parallel, *jsonOut)
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
		fmt.Fprintf(os.Stderr, "kspot-bench: unknown experiment %q (ids: e1..e14)\n", *exp)
		os.Exit(2)
	}
	if err := run(e); err != nil {
		fail(err)
	}
}

// fail prints the error and exits.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "kspot-bench:", err)
	os.Exit(1)
}
