package kspot

import (
	"runtime"
	"testing"

	"kspot/internal/bench"
	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tag"
	"kspot/internal/trace"
)

// mintEpochAllocCeiling bounds the allocations one steady-state MINT epoch
// may perform on the standard 64-node / 16-cluster deployment. The pre-PR3
// hot path allocated ~1100 times per epoch (a fresh map-backed view per
// node per sweep, per-call codec buffers); the pooled views, reusable sweep
// scratch and caller-buffer codec brought it to ~26. The ceiling leaves
// headroom for recovery-round variance while still catching any return of
// per-node allocation (which costs O(nodes) ≈ 64+ per epoch at this size).
const mintEpochAllocCeiling = 150

// TestMintEpochAllocationCeiling is the end-to-end allocation regression
// test: sensing + one full MINT epoch (beacon, pruned sweep, ranking) on
// the sequential walk must stay under the ceiling.
func TestMintEpochAllocationCeiling(t *testing.T) {
	allocs := measureEpochAllocs(t, mint.New())
	if allocs > mintEpochAllocCeiling {
		t.Errorf("MINT epoch allocates %.0f times, ceiling %d (pre-PR3: ~1100)", allocs, mintEpochAllocCeiling)
	}
}

// TestTagEpochAllocationCeiling pins the TAG baseline too — it shares the
// sweep machinery, so a transport-level regression shows up here even if
// MINT's pruning happens to mask it.
func TestTagEpochAllocationCeiling(t *testing.T) {
	allocs := measureEpochAllocs(t, tag.New())
	if allocs > mintEpochAllocCeiling {
		t.Errorf("TAG epoch allocates %.0f times, ceiling %d (pre-PR3: ~717)", allocs, mintEpochAllocCeiling)
	}
}

func measureEpochAllocs(t *testing.T, op topk.SnapshotOperator) float64 {
	t.Helper()
	net, src, q, err := bench.StandardDeployment()
	if err != nil {
		t.Fatal(err)
	}
	return epochAllocs(t, net, src, q, op)
}

// epochAllocs attaches op and measures the allocations of one steady-state
// epoch (sensing included) on the transport.
func epochAllocs(t *testing.T, tp engine.Transport, src trace.Source, q topk.SnapshotQuery, op topk.SnapshotOperator) float64 {
	t.Helper()
	if err := op.Attach(tp, q); err != nil {
		t.Fatal(err)
	}
	// Warm-up: creation phase plus a few steady epochs so every reusable
	// buffer (sweep scratch, pooled views, answer slices) reaches capacity.
	e := model.Epoch(0)
	step := func() {
		readings := engine.SenseEpoch(tp, src, e)
		if _, err := op.Epoch(e, readings); err != nil {
			t.Fatal(err)
		}
		e++
	}
	for i := 0; i < 8; i++ {
		step()
	}
	return testing.AllocsPerRun(50, step)
}

// liveEpochAllocCeiling bounds one steady-state MINT epoch at scale-1000 on
// a network at Parallel 2, whose sweeps are level-synchronous: ~50
// allocations (the readings and flood maps plus the sink-view copy),
// whatever the node count.
const liveEpochAllocCeiling = 100

// TestLiveMintEpochAllocationCeiling pins that no per-node allocation
// returns to the level-synchronous sweep: a ceiling a tenth of the node
// count.
func TestLiveMintEpochAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: a thousand pooled views do not stay pooled")
	}
	scen, err := config.ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	net.SetParallel(2)
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	q := topk.SnapshotQuery{K: 3, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	if allocs := epochAllocs(t, net, src, q, mint.New()); allocs > liveEpochAllocCeiling {
		t.Errorf("MINT epoch at scale-1000, Parallel 2, allocates %.0f times, ceiling %d", allocs, liveEpochAllocCeiling)
	}
}

// senseEpochAllocCeiling bounds the sense half of a scale-1000 epoch
// (PresampleEpoch + CommitSenseEpoch). It allocates the readings map —
// its header and its tables, a handful of allocations whatever the roster
// — and nothing else: before the node table the phase also sorted and
// re-collected the roster twice (~48 allocations, 126 kB against 55 kB).
// Any per-node allocation would cost a thousand here.
const senseEpochAllocCeiling = 12

// TestSenseEpochAllocationCeiling pins the sense phase.
func TestSenseEpochAllocationCeiling(t *testing.T) {
	scen, err := config.ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	e := model.Epoch(0)
	allocs := testing.AllocsPerRun(20, func() {
		engine.CommitSenseEpoch(net, e, engine.PresampleEpoch(net, src, e))
		e++
	})
	if allocs > senseEpochAllocCeiling {
		t.Errorf("the sense phase at scale-1000 allocates %.0f times, ceiling %d", allocs, senseEpochAllocCeiling)
	}
}

// flatStepByteCeiling bounds the bytes one whole flat Cursor.Step may
// allocate at scale-1000 at kspotd's Parallel bound on two cores (sense,
// MINT acquisition, oracle, cut — kspotd's flat-sweep epoch without the
// hub). Bytes, not
// count: the garbage per epoch sets the GC's share of the latency tail.
// Measured ~74 kB (the readings map is 55 kB of it); it was ~146 kB when
// the sense phase re-sorted the roster and grew the map from empty.
const flatStepByteCeiling = 100 << 10

// TestFlatStepAllocationBytesCeiling pins the whole step's garbage.
func TestFlatStepAllocationBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: a thousand pooled views do not stay pooled")
	}
	scen, err := ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(scen, WithParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := cur.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // creation phase, then every pooled buffer at capacity
		step()
	}
	const epochs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < epochs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs; perEpoch > flatStepByteCeiling {
		t.Errorf("a flat scale-1000 step allocates %d bytes, ceiling %d", perEpoch, flatStepByteCeiling)
	} else {
		t.Logf("flat scale-1000 step: %d bytes/epoch", perEpoch)
	}
}

// tenantsStepAllocCeiling and tenantsStepByteCeiling bound one epoch of the
// multi-tenant loop: 128 cursors in two acquisition groups over one
// sensed union, each stepped once (BenchmarkTenantsEpoch's body). What is
// left per cursor is its own two slices — the cut of the group's ranking
// and its copy of the exact prefix; measured 273 allocations and 11.9 kB.
// When every cursor rebuilt the exact ranking from the readings map and
// every pop dropped its queue's array it was 906 and 87.8 kB.
const (
	tenantsStepAllocCeiling = 330
	tenantsStepByteCeiling  = 14 << 10
)

// TestTenantsStepAllocationCeiling pins that nothing per cursor but its own
// answer slices is allocated: no view, no ranking, no queue.
func TestTenantsStepAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: pooled views do not stay pooled")
	}
	step := tenantsCursors(t)
	const epochs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < epochs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / epochs
	bytes := (after.TotalAlloc - before.TotalAlloc) / epochs
	if allocs > tenantsStepAllocCeiling || bytes > tenantsStepByteCeiling {
		t.Errorf("a 128-cursor epoch allocates %d times, %d bytes; ceilings %d, %d", allocs, bytes, tenantsStepAllocCeiling, tenantsStepByteCeiling)
	} else {
		t.Logf("128-cursor epoch: %d allocs, %d bytes", allocs, bytes)
	}
}
