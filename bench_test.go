// Benchmarks: the experiment harness (E1–E14, see DESIGN.md's experiment
// index) and the in-process micro table, both registered once in
// internal/bench and run here as sub-benchmarks, plus the query planner and
// the two historic operators through the public API.
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Micro/mint-epoch-scale-4000' -benchtime 5x .
//	go test -run '^$' -bench 'Experiment/e5$' -cpuprofile cpu.out .
//
// The micros report their domain metrics (tx_bytes/epoch, msgs/epoch,
// coord_bytes/epoch, us/node/epoch) alongside ns/op; `kspot-bench
// -json` records the same bodies in BENCH.json, and regenerating the full
// experiment tables is `go run ./cmd/kspot-bench`. What needs real
// processes — wire round trips, recovery, the serving tier — is measured
// end to end by `bash benchmark/run.sh`.
package kspot

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"kspot/internal/bench"
	"kspot/internal/query"
)

// BenchmarkExperiment runs every harness experiment at reduced scale. Scale
// is per-run configuration, so parallel benchmark processes (-cpu sweeps)
// never observe each other's sizing.
func BenchmarkExperiment(b *testing.B) {
	cfg := bench.RunConfig{Scale: 0.1}
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicro runs the micro table (see bench.Micros for what each entry
// measures) with the two committed scale sizes and the parallel legs at
// NumCPU sweep workers.
func BenchmarkMicro(b *testing.B) {
	for _, m := range bench.Micros(bench.RunConfig{Scale: 0.1, Parallel: runtime.NumCPU()}) {
		b.Run(m.Name, m.Run)
	}
}

// BenchmarkQueryPlan measures the §II parser + router.
func BenchmarkQueryPlan(b *testing.B) {
	schema := query.DefaultSchema()
	queries := []string{
		"SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min",
		"SELECT TOP 5 timeinstant, AVG(temp) FROM sensors WITH HISTORY 256",
		"SELECT sound, temp FROM sensors",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.PlanText(queries[i%len(queries)], schema); err != nil {
			b.Fatal(err)
		}
	}
}

// tenantsCursors posts kspotd's flat-tenants shape on the demo scenario at
// kspotd's Parallel bound on two cores: 128 cursors, 2 aggregates × K 1..4,
// so two acquisition groups over one sensed union. The returned step advances every cursor one epoch, in
// post order — the daemon's loop without the hub — and has already run the
// creation phase and brought every reused buffer to capacity.
func tenantsCursors(tb testing.TB) (step func()) {
	tb.Helper()
	sys, err := Open(DemoScenario(), WithParallel(2))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	var cursors []*Cursor
	for i := 0; i < 128; i++ {
		sql := fmt.Sprintf("SELECT TOP %d roomid, %s(sound) FROM sensors GROUP BY roomid", 1+i%4, []string{"AVG", "MAX"}[i/4%2])
		cur, err := sys.Post(sql)
		if err != nil {
			tb.Fatal(err)
		}
		cursors = append(cursors, cur)
	}
	step = func() {
		for _, cur := range cursors {
			res, err := cur.Step()
			if err != nil {
				tb.Fatal(err)
			}
			if !res.Correct {
				tb.Fatalf("epoch %d: %v, exact %v", res.Epoch, res.Answers, res.Exact)
			}
		}
	}
	for i := 0; i < 16; i++ {
		step()
	}
	return step
}

// BenchmarkTenantsEpoch measures one epoch of the multi-tenant loop: every
// one of 128 cursors stepped once (sense, two acquisitions, 128 cuts, 128
// scores against the epoch's one exact ranking). CI gates its allocs/op to
// agree run to run within rounding: the count follows the epochs' data,
// but for a timing-dependent 0.2 %.
func BenchmarkTenantsEpoch(b *testing.B) {
	step := tenantsCursors(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkHistoricTJA measures one full TJA execution (W=128, n=36).
func BenchmarkHistoricTJA(b *testing.B) {
	benchHistoric(b, "tja")
}

// BenchmarkHistoricTPUT measures one full TPUT execution on the same data.
func BenchmarkHistoricTPUT(b *testing.B) {
	benchHistoric(b, "tput")
}

func benchHistoric(b *testing.B, algo Algorithm) {
	scen := DemoScenario()
	scen.Workload.Kind = "diurnal"
	sys, err := Open(scen)
	if err != nil {
		b.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT TOP 4 timeinstant, AVG(temp) FROM sensors WITH HISTORY %d", 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := sys.PostWith(sql, algo)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cur.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
