package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// meta is the machine and run fingerprint a result file carries: numbers
// from different machines or window lengths are not comparable.
type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Watchers   int     `json:"watchers"`
}

func fingerprint(seed int64, seconds float64) meta {
	kernel := "unknown"
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(out))
	}
	return meta{NProc: runtime.NumCPU(), GOMAXPROCS: loadgenProcs(), Go: runtime.Version(), Kernel: kernel,
		Seed: seed, WindowS: seconds, Watchers: watchers()}
}

// resultFile is what a full pass writes and -compare reads.
type resultFile struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much worse b is than a, as a share of a (negative when
// b is better), for a metric whose better direction is given.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the relative change and the metric's bound, and reports whether any
// metric of B is worse than A by more than its bound (or B failed its
// correctness gate).
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if a.Meta.NProc != b.Meta.NProc || a.Meta.WindowS != b.Meta.WindowS || a.Meta.Seed != b.Meta.Seed {
		fmt.Fprintf(out, "warning: runs differ in nproc/window/seed (%+v vs %+v); timings are not comparable\n", a.Meta, b.Meta)
	}
	fmt.Fprintf(out, "%-13s %-26s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "change", "bound")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-13s missing from a result file\n", w.Name)
			worse = true
			continue
		}
		if !rb.Correct {
			fmt.Fprintf(out, "%-13s B failed its correctness gate (%d of %d)\n", w.Name, rb.Failed, rb.Attempted)
			worse = true
		}
		for _, s := range endToEnd {
			ma, okA := ra.EndToEnd[s.Name]
			mb, okB := rb.EndToEnd[s.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-13s %-26s missing\n", w.Name, s.Name)
				worse = true
				continue
			}
			d := worsening(ma.Value, mb.Value, s.Better)
			verdict := ""
			if d > s.Bound {
				verdict = "  REGRESSION"
				worse = true
			}
			// The change is printed as B relative to A, signed as measured.
			change := 0.0
			if ma.Value != 0 {
				change = (mb.Value - ma.Value) / ma.Value
			}
			fmt.Fprintf(out, "%-13s %-26s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				w.Name, s.Name, ma.Value, mb.Value, 100*change, 100*s.Bound, verdict)
		}
	}
	return worse, nil
}
