package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the driver's contract for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonBounded  `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type jsonBounded struct {
	jsonMetric
	Bound float64 `json:"bound"`
}

// fromSpec renders the dictionary of spec.go in BENCHMARK.json's form.
func fromSpec(runSeconds int) benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonBounded{jsonMetric{s.Name, s.Unit, s.Better}, s.Bound})
	}
	for _, s := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{s.Name, s.Unit, s.Better})
	}
	return b
}

// TestBenchmarkJSONMatchesSpec keeps the file the driver reads equal to the
// dictionary the generator emits from, and both inside the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := fromSpec(got.RunSeconds); !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json and spec.go disagree; spec.go says:\n%s", out)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, s := range endToEnd {
		check(s.Name, s.Unit)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v", s.Name, s.Bound)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, s := range perLayer {
		check(s.Name, s.Unit)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
}
