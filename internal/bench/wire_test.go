package bench

import (
	"testing"
	"time"
)

// TestWireEpochRTTSpeedup is the PR-9 acceptance bar in test form: at a
// link-dominated RTT an epoch of G groups costs exactly one round trip,
// so its latency must be at least 3× below the (1+G) round trips a call
// per sense and per group would pay at the same injected RTT (ideal is
// 1+G = 5×).
func TestWireEpochRTTSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("injects real link delay in -short mode")
	}
	const (
		linkDelay = 2 * time.Millisecond
		groups    = WireRTTGroups
		epochs    = 6
	)
	res, err := MeasureWireEpochRTT(linkDelay, groups, epochs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%8.2f ms/epoch  %5.2f rounds/epoch  %7.0f bytes/epoch",
		res.NsPerEpoch/1e6, res.RoundsPerEpoch, res.BytesPerEpoch)
	if res.RoundsPerEpoch != 1 {
		t.Errorf("rounds/epoch = %v, want 1", res.RoundsPerEpoch)
	}
	if res.BytesPerEpoch <= 0 {
		t.Errorf("bytes/epoch not recorded: %v", res.BytesPerEpoch)
	}
	rtt := float64(2 * linkDelay.Nanoseconds())
	if res.NsPerEpoch < rtt {
		t.Errorf("epoch took %.2fms, below one injected RTT of %.2fms — the link delay did not apply",
			res.NsPerEpoch/1e6, rtt/1e6)
	}
	perCall := float64(1+groups) * rtt
	if speedup := perCall / res.NsPerEpoch; speedup < 3 {
		t.Errorf("epoch speedup %.2fx over %d round trips, want >= 3x (%.2fms vs %.2fms)",
			speedup, 1+groups, res.NsPerEpoch/1e6, perCall/1e6)
	}
}
