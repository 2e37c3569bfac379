package main

import (
	"fmt"
	"testing"

	"kspot"
)

// BenchmarkStep128 measures the daemon's epoch: workload.step over
// flat-tenants' mix on the demo deployment at the Parallel bound of two
// cores — the primary (TOP 3 AVG) plus 127 queries over two aggregates ×
// K 1..4, so two acquisition groups over one sensed union — stepping every
// cursor and publishing their results, with no watcher attached.
func BenchmarkStep128(b *testing.B) {
	sys, err := kspot.Open(kspot.DemoScenario(), kspot.WithParallel(2))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	wl := newWorkload(sys, nil)
	if _, err := wl.add("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid", ""); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < 128; i++ {
		sql := fmt.Sprintf("SELECT TOP %d roomid, %s(sound) FROM sensors GROUP BY roomid", 1+i%4, []string{"AVG", "MAX"}[i%2])
		if _, err := wl.add(sql, ""); err != nil {
			b.Fatal(err)
		}
	}
	step := func() {
		if _, ok := wl.step(); !ok {
			b.Fatal("the primary query failed")
		}
	}
	for i := 0; i < 128; i++ { // every buffer and the hub's ring at capacity
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
