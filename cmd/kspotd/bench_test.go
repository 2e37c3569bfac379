package main

import (
	"fmt"
	"runtime"
	"testing"

	"kspot"
)

// step128 builds the daemon's flat-tenants epoch on the demo deployment at
// the Parallel bound of two cores — the primary (TOP 3 AVG) plus 127
// queries over two aggregates × K 1..4, so two acquisition groups over one
// sensed union — and returns workload.step over it, with no watcher
// attached. Every buffer and the hub's ring are at capacity on return.
func step128(tb testing.TB) (step func()) {
	tb.Helper()
	sys, err := kspot.Open(kspot.DemoScenario(), kspot.WithParallel(2))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	wl := newWorkload(sys, nil)
	if _, err := wl.add(primarySQL, ""); err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < 128; i++ {
		sql := fmt.Sprintf("SELECT TOP %d roomid, %s(sound) FROM sensors GROUP BY roomid", 1+i%4, []string{"AVG", "MAX"}[i%2])
		if _, err := wl.add(sql, ""); err != nil {
			tb.Fatal(err)
		}
	}
	step = func() {
		if _, ok := wl.step(); !ok {
			tb.Fatal("the primary query failed")
		}
	}
	for i := 0; i < 128; i++ {
		step()
	}
	return step
}

// BenchmarkStep128 measures the daemon's epoch: step128's body, every
// cursor stepped in one frame and the frame published.
func BenchmarkStep128(b *testing.B) {
	step := step128(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// step128AllocCeiling bounds one step128 epoch: the sense, two MINT
// acquisitions, the epoch's one oracle and the round's bookkeeping —
// nothing per query. Measured 46 allocations; stepping each cursor on its
// own, with a copy of its exact prefix and of its member cut, was 237.
const step128AllocCeiling = 48

// TestStep128AllocationCeiling pins that a 128-query frame allocates
// nothing per query: no cut, no exact copy, no queue, no frame.
func TestStep128AllocationCeiling(t *testing.T) {
	step := step128(t)
	const epochs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < epochs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / epochs; allocs > step128AllocCeiling {
		t.Errorf("a 128-query frame allocates %d times, ceiling %d", allocs, step128AllocCeiling)
	} else {
		t.Logf("128-query frame: %d allocs", allocs)
	}
}
