// Benchmarks: one testing.B entry per experiment of the reproduction
// (E1–E14, see DESIGN.md's experiment index), sharing the exact harness
// cmd/kspot-bench runs at full scale, plus micro-benchmarks of the hot
// paths (codec, view merge, query planning, one MINT epoch).
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks run at reduced scale per iteration and report
// domain metrics (tx_bytes, messages) alongside ns/op; regenerating the
// full tables is `go run ./cmd/kspot-bench`.
package kspot

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"kspot/internal/bench"
	"kspot/internal/query"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tag"
)

// benchExperiment wraps one harness experiment as a benchmark. Scale is
// per-run configuration, so parallel benchmark processes (-cpu sweeps)
// never observe each other's sizing.
func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.RunConfig{Scale: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Figure1(b *testing.B)         { benchExperiment(b, "e1") }
func BenchmarkE2Figure3(b *testing.B)         { benchExperiment(b, "e2") }
func BenchmarkE3SnapshotSavings(b *testing.B) { benchExperiment(b, "e3") }
func BenchmarkE4Energy(b *testing.B)          { benchExperiment(b, "e4") }
func BenchmarkE5Scaling(b *testing.B)         { benchExperiment(b, "e5") }
func BenchmarkE6KSweep(b *testing.B)          { benchExperiment(b, "e6") }
func BenchmarkE7Historic(b *testing.B)        { benchExperiment(b, "e7") }
func BenchmarkE8TJAPhases(b *testing.B)       { benchExperiment(b, "e8") }
func BenchmarkE9Recall(b *testing.B)          { benchExperiment(b, "e9") }
func BenchmarkE10QueryPlan(b *testing.B)      { benchExperiment(b, "e10") }
func BenchmarkE11GammaAblation(b *testing.B)  { benchExperiment(b, "e11") }
func BenchmarkE12Payload(b *testing.B)        { benchExperiment(b, "e12") }
func BenchmarkE13Loss(b *testing.B)           { benchExperiment(b, "e13") }
func BenchmarkE14FILA(b *testing.B)           { benchExperiment(b, "e14") }

// BenchmarkMintEpoch measures one steady-state MINT epoch on the standard
// 64-node / 16-cluster network, reporting the domain metrics the System
// Panel displays.
func BenchmarkMintEpoch(b *testing.B) {
	benchOperatorEpoch(b, mint.New())
}

// BenchmarkTagEpoch is the TAG baseline for BenchmarkMintEpoch.
func BenchmarkTagEpoch(b *testing.B) {
	benchOperatorEpoch(b, tag.New())
}

func benchOperatorEpoch(b *testing.B, op topk.SnapshotOperator) {
	// Shared body (internal/bench), so `go test -bench` and the -json
	// trajectory always measure the identical deployment and loop.
	txBytes, msgs := bench.RunOperatorEpochBench(b, op)
	if b.N > 0 {
		b.ReportMetric(txBytes, "tx_bytes/epoch")
		b.ReportMetric(msgs, "msgs/epoch")
	}
}

// BenchmarkMintEpochScale4000 measures one steady-state MINT epoch on the
// flat scale-4000 deployment with the legacy sequential sweep — the
// baseline of the parallel-sweep speedup curve.
func BenchmarkMintEpochScale4000(b *testing.B) {
	benchScaleEpoch(b, bench.SpeedupScaleSize, 1, false)
}

// BenchmarkMintEpochScale4000Parallel is BenchmarkMintEpochScale4000 with
// the level-synchronous parallel sweep at NumCPU workers. Answers, frames
// and energy accounting are byte-identical to the sequential run (see
// internal/sim); only the wall clock moves.
func BenchmarkMintEpochScale4000Parallel(b *testing.B) {
	benchScaleEpoch(b, bench.SpeedupScaleSize, runtime.NumCPU(), false)
}

// BenchmarkMintEpochScale1000 and BenchmarkLiveMintEpochScale1000 are the
// substrate pair: the same steady-state MINT epoch on the flat scale-1000
// deployment at NumCPU sweep workers, on the network itself and on an
// engine.Live over it. Traffic is identical; the difference is what the
// concurrent substrate's lock and frame hand-off cost.
func BenchmarkMintEpochScale1000(b *testing.B) {
	benchScaleEpoch(b, bench.LiveScaleSize, runtime.NumCPU(), false)
}

func BenchmarkLiveMintEpochScale1000(b *testing.B) {
	benchScaleEpoch(b, bench.LiveScaleSize, runtime.NumCPU(), true)
}

// BenchmarkSenseEpochScale1000 and BenchmarkLiveSenseEpochScale1000 are the
// sense half of that epoch alone (PresampleEpoch + CommitSenseEpoch). The
// live benchmark also times the same loop on the bare network and reports
// the ratio: the phase enters the live lock a constant number of times per
// epoch, so it should sit near 1 (plus the history windows' pushes).
func BenchmarkSenseEpochScale1000(b *testing.B) { bench.RunSenseEpochBench(b, false) }

func BenchmarkLiveSenseEpochScale1000(b *testing.B) {
	sim := bench.RunSenseEpochBench(b, false)
	live := bench.RunSenseEpochBench(b, true)
	if sim > 0 {
		b.ReportMetric(live/sim, "live/sim")
	}
}

func benchScaleEpoch(b *testing.B, n, workers int, live bool) {
	txBytes, msgs := bench.RunScaleMintEpochBench(b, n, workers, live)
	if b.N > 0 {
		b.ReportMetric(txBytes, "tx_bytes/epoch")
		b.ReportMetric(msgs, "msgs/epoch")
	}
}

// BenchmarkFederatedMintEpoch measures one steady-state federated MINT
// epoch on the sharded scale deployment (scale-1000 split into 4 shard
// networks, coordinator merge included) — the configuration the
// sharded-vs-flat conformance suite pins for correctness.
func BenchmarkFederatedMintEpoch(b *testing.B) {
	txBytes, msgs, coordBytes := bench.RunFederatedMintEpochBench(b)
	if b.N > 0 {
		b.ReportMetric(txBytes, "tx_bytes/epoch")
		b.ReportMetric(msgs, "msgs/epoch")
		b.ReportMetric(coordBytes, "coord_bytes/epoch")
	}
}

// BenchmarkFederatedHistoricEpoch measures one full federated historic
// execution (TOP-4 WITH HISTORY 16) on the sharded scale deployment:
// per-shard TJA over the buffered windows plus the coordinator tier's
// two-phase threshold merge — the configuration the federated-historic
// conformance suite pins for correctness.
func BenchmarkFederatedHistoricEpoch(b *testing.B) {
	txBytes, coordBytes := bench.RunFederatedHistoricBench(b)
	if b.N > 0 {
		b.ReportMetric(txBytes, "tx_bytes/run")
		b.ReportMetric(coordBytes, "coord_bytes/run")
	}
}

// BenchmarkViewEncode measures the wire codec on a 16-group view, round-
// tripping through caller-owned buffers the way the sweep hot path does.
func BenchmarkViewEncode(b *testing.B) { bench.RunViewCodecBench(b) }

// BenchmarkViewMerge measures the TAG merge path with a reused accumulator.
func BenchmarkViewMerge(b *testing.B) { bench.RunViewMergeBench(b) }

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

// BenchmarkSharedAcquisitionM{1,8,64} measure the multi-tenant serving
// path: M queries posted under one sensing signature ride ONE in-network
// acquisition per epoch, so the reported queries/sec should scale ~M× at
// nearly constant ns/op. BenchmarkPrivateAcquisitionM8 is the pre-sharing
// baseline (one acquisition group per query) for the same M=8 workload.
func BenchmarkSharedAcquisitionM1(b *testing.B) { bench.RunSharedAcquisitionBench(b, 1, true) }

func BenchmarkSharedAcquisitionM8(b *testing.B) { bench.RunSharedAcquisitionBench(b, 8, true) }

func BenchmarkSharedAcquisitionM64(b *testing.B) { bench.RunSharedAcquisitionBench(b, 64, true) }

func BenchmarkPrivateAcquisitionM8(b *testing.B) { bench.RunSharedAcquisitionBench(b, 8, false) }

// BenchmarkSSEFanOut64 measures the streaming results tier: one cursor's
// epoch stream fanned out through a serve.Hub into 64 subscribers (the SSE
// path without the sockets), reported as subscriber-deliveries per second.
func BenchmarkSSEFanOut64(b *testing.B) { bench.RunHubFanOutBench(b, 64) }

// BenchmarkWireEpochRTT measures what one federated epoch costs at a
// link-dominated RTT (wire.Faults injects a symmetric 1ms per-frame delay,
// so RTT = 2ms): the epoch-round protocol pays exactly one round trip for
// the sense and all G groups. rounds/epoch and wire_bytes/epoch are
// reported alongside ns/op so the protocol cost is visible independent of
// host speed.
func BenchmarkWireEpochRTT(b *testing.B) {
	rounds, bytes := bench.RunWireEpochRTTBench(b, bench.WireRTTLinkDelay, bench.WireRTTGroups)
	if b.N > 0 {
		b.ReportMetric(rounds, "rounds/epoch")
		b.ReportMetric(bytes, "wire_bytes/epoch")
	}
}
