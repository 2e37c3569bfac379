package bench

// The wire epoch-RTT benchmark: what one federated epoch costs when the
// socket has real propagation latency. wire.Faults' LinkDelay leg injects
// a symmetric per-frame delay on the client's socket path (RTT =
// 2×LinkDelay), and a G-group epoch is driven against a real shard server
// as the protocol carries it: one MsgEpochRound frame holding the sense
// and every group's acquisition — 1 round trip, whatever G is.
//
// BenchmarkWireEpochRTT (module root) and the `wire-epoch-batched`
// trajectory entry both run this body; rounds_per_epoch and
// wire_bytes_per_epoch record the protocol's cost independent of host
// speed.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/wire"
)

// WireRTTGroups is the shared-acquisition group count G of the RTT
// benchmark: the epoch is one round trip where a call per sense and per
// group would be 1+G.
const WireRTTGroups = 4

// WireRTTLinkDelay is the injected one-way propagation delay of the
// benchmark (RTT = 2×WireRTTLinkDelay) — large against loopback
// scheduling noise, small enough to keep the benchmark quick.
const WireRTTLinkDelay = time.Millisecond

// wireRig is the benchmark's deployment: a real shard server for the
// Figure-3 scenario on loopback, dialed by one client with link delay
// armed.
type wireRig struct {
	srv  *wire.Server
	cl   *wire.Client
	qids []uint32
}

func newWireRig(linkDelay time.Duration, groups int) (*wireRig, func(), error) {
	scen := config.Figure3Scenario()
	srv, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: 0})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	go srv.Serve(ln)
	cl, err := wire.Dial(wire.ClientConfig{
		Addr:     ln.Addr().String(),
		Scenario: scen.Name,
		Shard:    0,
		Shards:   1,
		Nodes:    len(scen.Nodes),
		Roster:   scen.Roster(),
		Faults:   &wire.Faults{LinkDelay: linkDelay},
	})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	rig := &wireRig{srv: srv, cl: cl, qids: make([]uint32, groups)}
	for i := range rig.qids {
		rig.qids[i] = uint32(i + 1)
		// G separately attached queries = G shared-acquisition groups; the
		// SQL is the same, the protocol cost per group is what matters.
		if err := cl.Attach(rig.qids[i], "mint", "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"); err != nil {
			cl.Close()
			srv.Close()
			return nil, nil, err
		}
	}
	return rig, func() { cl.Close(); srv.Close() }, nil
}

// epoch drives one coordinator epoch: every group in one round.
func (r *wireRig) epoch(e model.Epoch) error {
	_, results, err := r.cl.EpochRound(e, r.qids)
	if err != nil {
		return err
	}
	for _, g := range results {
		if g.Err != nil {
			return g.Err
		}
	}
	return nil
}

// WireRTTResult is one measurement of the epoch-RTT benchmark: wall clock,
// RPC round trips and wire bytes (both directions, frame headers
// included) per epoch.
type WireRTTResult struct {
	NsPerEpoch     float64
	RoundsPerEpoch float64
	BytesPerEpoch  float64
}

// measure runs a warm-up epoch, calls start (a benchmark resets its timer
// there), then drives the given number of steady-state epochs.
func (r *wireRig) measure(epochs int, start func()) (WireRTTResult, error) {
	if err := r.epoch(0); err != nil {
		return WireRTTResult{}, fmt.Errorf("bench: wire-rtt warm-up: %w", err)
	}
	m0 := r.cl.Metrics()
	start()
	began := time.Now()
	for i := 0; i < epochs; i++ {
		if err := r.epoch(model.Epoch(i + 1)); err != nil {
			return WireRTTResult{}, fmt.Errorf("bench: wire-rtt epoch %d: %w", i+1, err)
		}
	}
	elapsed := time.Since(began)
	m1 := r.cl.Metrics()
	if epochs == 0 {
		return WireRTTResult{}, nil
	}
	n := float64(epochs)
	return WireRTTResult{
		NsPerEpoch:     float64(elapsed.Nanoseconds()) / n,
		RoundsPerEpoch: float64(m1.Calls-m0.Calls) / n,
		BytesPerEpoch:  float64((m1.BytesOut-m0.BytesOut)+(m1.BytesIn-m0.BytesIn)) / n,
	}, nil
}

// MeasureWireEpochRTT measures the given number of steady-state epochs
// outside the testing.B harness.
func MeasureWireEpochRTT(linkDelay time.Duration, groups, epochs int) (WireRTTResult, error) {
	rig, cleanup, err := newWireRig(linkDelay, groups)
	if err != nil {
		return WireRTTResult{}, err
	}
	defer cleanup()
	return rig.measure(epochs, func() {})
}

// RunWireEpochRTTBench is the shared benchmark body: b.N steady-state
// epochs (the attach and a warm-up epoch are off the timer), returning
// RPC round trips and wire bytes per epoch.
func RunWireEpochRTTBench(b *testing.B, linkDelay time.Duration, groups int) (roundsPerEpoch, bytesPerEpoch float64) {
	rig, cleanup, err := newWireRig(linkDelay, groups)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	res, err := rig.measure(b.N, func() {
		b.ReportAllocs()
		b.ResetTimer()
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	return res.RoundsPerEpoch, res.BytesPerEpoch
}
