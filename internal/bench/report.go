package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// This file is the machine-readable side of the harness: kspot-bench -json
// appends one named run — every micro of the table (see Micros) sampled
// Samples times, plus one timed pass of every experiment — to the JSON
// trajectory file (BENCH.json), with the host it was measured on. Runs
// already recorded are carried over byte for byte, whatever schema wrote
// them, so the committed file accumulates a benchmark history the way
// EXPERIMENTS.md accumulates tables.

// Samples is how many times WriteJSON measures each micro. ns_op is the
// median of the samples and ns_op_mad their median absolute deviation — the
// row's noise band; every other column comes from the median sample.
const Samples = 5

// MicroResult is one micro-benchmark's measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	NsPerOpMAD  float64 `json:"ns_op_mad"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	// Metrics is what the body reported through b.ReportMetric, keyed by
	// unit (tx_bytes/epoch, msgs/epoch, us/node/epoch …): domain costs,
	// independent of host speed except where the unit says otherwise.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ExperimentTiming is one harness experiment's single-run measurement.
type ExperimentTiming struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	NsPerOp     int64  `json:"ns_op"`
	AllocsPerOp uint64 `json:"allocs_op"`
	BytesPerOp  uint64 `json:"bytes_op"`
}

// Host fingerprints the machine and toolchain a run was measured on.
type Host struct {
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Run is one recorded benchmark pass (one PR's entry in the trajectory).
type Run struct {
	Recorded    string             `json:"recorded"`
	Source      string             `json:"source"`
	Scale       float64            `json:"scale"`
	Parallel    int                `json:"parallel"`
	Samples     int                `json:"samples"`
	Host        Host               `json:"host"`
	Micro       []MicroResult      `json:"micro"`
	Experiments []ExperimentTiming `json:"experiments,omitempty"`
}

// WriteJSON measures the current build (the micro table at cfg, experiments
// at cfg.Scale) and merges the result into path under runName, preserving
// every other recorded run.
func WriteJSON(w io.Writer, path, runName string, cfg RunConfig) error {
	run := Run{
		Recorded: time.Now().UTC().Format(time.RFC3339),
		Source:   "kspot-bench -json",
		Scale:    cfg.Scale,
		Parallel: cfg.Parallel,
		Samples:  Samples,
		Host: Host{
			Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	// Experiments first: their single-pass timings read MemStats deltas and
	// should not run against a heap that still holds the scale deployments
	// the micro bodies build and keep for their re-invocations.
	for _, e := range All() {
		fmt.Fprintf(w, "exp   %-28s ... ", e.ID)
		t, err := timeExperiment(e, cfg)
		if err != nil {
			return fmt.Errorf("bench: experiment %s: %w", e.ID, err)
		}
		run.Experiments = append(run.Experiments, t)
		fmt.Fprintf(w, "%12d ns %9d allocs\n", t.NsPerOp, t.AllocsPerOp)
	}
	for _, m := range Micros(cfg) {
		fmt.Fprintf(w, "bench %-28s ... ", m.Name)
		samples := make([]testing.BenchmarkResult, Samples)
		for i := range samples {
			samples[i] = testing.Benchmark(m.Run)
		}
		res, err := summarize(samples)
		if err != nil {
			return fmt.Errorf("bench: micro %s: %w", m.Name, err)
		}
		res.Name = m.Name
		run.Micro = append(run.Micro, res)
		fmt.Fprintf(w, "%12.0f ±%-9.0f ns/op %6d allocs/op", res.NsPerOp, res.NsPerOpMAD, res.AllocsPerOp)
		for _, unit := range slices.Sorted(maps.Keys(res.Metrics)) {
			fmt.Fprintf(w, "  %.4g %s", res.Metrics[unit], unit)
		}
		fmt.Fprintln(w)
	}
	return mergeJSON(path, runName, run)
}

// summarize folds one micro's samples (an odd count) into its row: the
// median sample by ns/op supplies every column, and the samples' median
// absolute deviation from it is the noise band. A sample with N == 0 means
// the body failed (b.Fatal aborts the run).
func summarize(samples []testing.BenchmarkResult) (MicroResult, error) {
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	for _, r := range samples {
		if r.N == 0 {
			return MicroResult{}, fmt.Errorf("benchmark body failed")
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return nsPerOp(samples[i]) < nsPerOp(samples[j]) })
	mid := samples[len(samples)/2]
	dev := make([]float64, len(samples))
	for i, r := range samples {
		dev[i] = math.Abs(nsPerOp(r) - nsPerOp(mid))
	}
	sort.Float64s(dev)
	return MicroResult{
		Iterations:  mid.N,
		NsPerOp:     nsPerOp(mid),
		NsPerOpMAD:  dev[len(dev)/2],
		AllocsPerOp: mid.AllocsPerOp(),
		BytesPerOp:  mid.AllocedBytesPerOp(),
		Metrics:     mid.Extra,
	}, nil
}

// mergeJSON folds a run into the trajectory file, creating it if needed.
// Recorded runs stay raw JSON: re-marshalling them through today's Run
// would silently erase every field a later schema retired.
func mergeJSON(path, runName string, run Run) error {
	var f struct {
		GeneratedBy string                     `json:"generated_by"`
		Note        string                     `json:"note"`
		Runs        map[string]json.RawMessage `json:"runs"`
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("bench: existing %s is not a trajectory file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.GeneratedBy = "kspot-bench -json"
	f.Note = "Benchmark trajectory: one named run per measurement, each kept as the schema of its day wrote it " +
		"(EXPERIMENTS.md says what each run added and which rows are frozen history). " +
		"Regenerate with `kspot-bench -json -json-run <name>`; existing runs are preserved."
	raw, err := json.Marshal(run)
	if err != nil {
		return err
	}
	if f.Runs == nil {
		f.Runs = map[string]json.RawMessage{}
	}
	f.Runs[runName] = raw
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timeExperiment runs one experiment once at the configured scale and
// measures wall time and heap churn via MemStats deltas — coarse but cheap,
// and enough to catch an experiment's cost regressing across PRs.
func timeExperiment(e Experiment, cfg RunConfig) (ExperimentTiming, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := e.Run(io.Discard, cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return ExperimentTiming{}, err
	}
	return ExperimentTiming{
		ID:          e.ID,
		Title:       e.Title,
		NsPerOp:     elapsed.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
	}, nil
}
