package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMergeJSONKeepsRecordedRuns merges a run of today's schema into a copy
// of the committed trajectory and requires every other run to be JSON-equal
// to what it was: recorded runs carry fields later schemas retired
// (queries_per_sec, recovery_ms, workers …), and a merge that re-marshalled
// them through today's Run would silently erase that history.
func TestMergeJSONKeepsRecordedRuns(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	run := Run{Recorded: "now", Scale: 0.1, Parallel: 2, Samples: Samples,
		Micro: []MicroResult{{Name: "mint-epoch", Iterations: 3, NsPerOp: 10, NsPerOpMAD: 1,
			Metrics: map[string]float64{"tx_bytes/epoch": 4399}}}}
	// Twice: re-recording a run replaces it and still touches no other.
	for i := 0; i < 2; i++ {
		if err := mergeJSON(path, "merge-test", run); err != nil {
			t.Fatal(err)
		}
	}
	load := func(data []byte) map[string]any {
		var f struct {
			Runs map[string]any `json:"runs"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		return f.Runs
	}
	merged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, after := load(committed), load(merged)
	if len(before) == 0 || len(after) != len(before)+1 {
		t.Fatalf("%d runs before the merge, %d after", len(before), len(after))
	}
	for name, want := range before {
		if !reflect.DeepEqual(after[name], want) {
			t.Errorf("recorded run %q changed across the merge", name)
		}
	}
	var got Run
	raw, _ := json.Marshal(after["merge-test"])
	if err := json.Unmarshal(raw, &got); err != nil || !reflect.DeepEqual(got, run) {
		t.Errorf("merged run reads back as %+v (%v), want %+v", got, err, run)
	}

	// A file that is not a trajectory is refused, not overwritten.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeJSON(path, "merge-test", run); err == nil {
		t.Error("merged into a file that is not JSON")
	}
}

// TestSummarizeMedianAndMAD pins the row a micro's samples fold into: the
// median sample by ns/op supplies every column, the noise band is the
// median absolute deviation, and one failed sample fails the row.
func TestSummarizeMedianAndMAD(t *testing.T) {
	sample := func(nsPerOp, n int, tx float64) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: n, T: time.Duration(nsPerOp * n),
			Extra: map[string]float64{"tx_bytes/epoch": tx}}
	}
	res, err := summarize([]testing.BenchmarkResult{
		sample(900, 10, 1), sample(100, 20, 2), sample(130, 30, 3), sample(110, 40, 4), sample(120, 50, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sorted: 100 110 120 130 900 — median 120, deviations 20 10 0 10 780.
	want := MicroResult{Iterations: 50, NsPerOp: 120, NsPerOpMAD: 10, Metrics: map[string]float64{"tx_bytes/epoch": 5}}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("summarize = %+v, want %+v", res, want)
	}
	if _, err := summarize([]testing.BenchmarkResult{sample(1, 1, 1), {}, sample(1, 1, 1)}); err == nil {
		t.Error("a failed sample (N == 0) did not fail the row")
	}
}
