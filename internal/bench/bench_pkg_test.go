package bench

import (
	"bytes"
	"flag"
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("registered %d experiments, want 14", len(all))
	}
	if all[0].ID != "e1" || all[len(all)-1].ID != "e14" {
		t.Fatalf("ordering: first=%s last=%s", all[0].ID, all[len(all)-1].ID)
	}
	for _, e := range all {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Get("e1"); !ok {
		t.Error("Get(e1) failed")
	}
	if _, ok := Get("e99"); ok {
		t.Error("Get(e99) succeeded")
	}
}

// TestAllExperimentsRunClean executes every experiment at reduced scale and
// fails on any error or shape violation — the whole reproduction in one
// test.
func TestAllExperimentsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments in -short mode")
	}
	cfg := RunConfig{Scale: 0.2}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			if out := buf.String(); strings.Contains(out, "SHAPE VIOLATION") {
				t.Errorf("%s reported a shape violation:\n%s", e.ID, out)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRunConfigClamps(t *testing.T) {
	if got := (RunConfig{Scale: -3}).scaled(100); got != 100 {
		t.Errorf("invalid scale: scaled(100) = %d, want 100", got)
	}
	if got := (RunConfig{}).scaled(100); got != 100 {
		t.Errorf("zero-value config: scaled(100) = %d, want 100", got)
	}
	if got := (RunConfig{Scale: 0.5}).scaled(100); got != 50 {
		t.Errorf("scaled(100) = %d", got)
	}
	if got := (RunConfig{Scale: 0.5}).scaled(1); got != 2 {
		t.Errorf("scaled floor = %d", got)
	}
}

// The metric sets the epoch micros report.
var (
	radioCost = []string{"msgs/epoch", "tx_bytes/epoch"}
	scaleCost = []string{"msgs/epoch", "tx_bytes/epoch", "us/node/epoch"}
	fedCost   = []string{"coord_bytes/epoch", "msgs/epoch", "tx_bytes/epoch"}
)

// microMetrics is the whole micro table at -scale 1 -parallel N: every name
// with the metrics its body reports, in sorted order.
var microMetrics = map[string][]string{
	"mint-epoch":                     radioCost,
	"tag-epoch":                      radioCost,
	"view-codec":                     nil,
	"view-merge":                     nil,
	"fed-mint-epoch":                 fedCost,
	"fed-historic-epoch":             fedCost,
	"mint-epoch-scale-1000":          scaleCost,
	"mint-epoch-scale-4000":          scaleCost,
	"mint-epoch-scale-16000":         scaleCost,
	"mint-epoch-scale-100000":        scaleCost,
	"mint-epoch-scale-4000-parallel": scaleCost,
	"sense-epoch-scale-1000":         {"us/node/epoch"},
}

// TestMicroTable is the micro table's registry check: names are unique and
// known, and each (scale, parallel) configuration holds exactly the rows it
// should — the big scale sizes gated on scale, the speedup leg on parallel.
func TestMicroTable(t *testing.T) {
	big := []string{"mint-epoch-scale-16000", "mint-epoch-scale-100000"}
	for _, c := range []struct {
		cfg     RunConfig
		without []string
	}{
		{RunConfig{Scale: 1, Parallel: 2}, nil},
		{RunConfig{Scale: 1, Parallel: 1}, []string{"mint-epoch-scale-4000-parallel"}},
		{RunConfig{Scale: 0.5, Parallel: 8}, big[1:]},
		{RunConfig{Scale: 0.1, Parallel: 2}, big},
		{RunConfig{Scale: 0.1}, append([]string{"mint-epoch-scale-4000-parallel"}, big...)},
	} {
		var want, got []string
		for _, name := range slices.Sorted(maps.Keys(microMetrics)) {
			if !slices.Contains(c.without, name) {
				want = append(want, name)
			}
		}
		for _, m := range Micros(c.cfg) {
			if m.Run == nil {
				t.Errorf("%+v: micro %q has no body", c.cfg, m.Name)
			}
			got = append(got, m.Name)
		}
		slices.Sort(got) // a name registered twice stays in as an extra element
		if !slices.Equal(got, want) {
			t.Errorf("%+v: table holds %v, want %v", c.cfg, got, want)
		}
	}
}

// TestMicroBodiesReportTheirMetrics runs every body of the -scale 0.1 table
// once and requires it to report exactly the metrics microMetrics declares
// for it — what BenchmarkMicro prints and WriteJSON records.
func TestMicroBodiesReportTheirMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the scale-4000 deployment in -short mode")
	}
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := benchtime.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer benchtime.Value.Set(old)
	for _, m := range Micros(RunConfig{Scale: 0.1, Parallel: 2}) {
		r := testing.Benchmark(m.Run)
		if r.N == 0 {
			t.Errorf("%s: body failed", m.Name)
			continue
		}
		if got, want := slices.Sorted(maps.Keys(r.Extra)), microMetrics[m.Name]; !slices.Equal(got, want) {
			t.Errorf("%s: reports %v, want %v", m.Name, got, want)
		}
		for unit, v := range r.Extra {
			if !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", m.Name, unit, v)
			}
		}
	}
}
