package wire

// Socket-path fault injection: the framing-layer analogue of the radio
// tier's frame faults. Decisions are keyed hashes of (seed, fault
// dimension, rpc sequence, attempt) — the same discipline as
// internal/faults, via its exported KeyedUnit — so a lossy-socket scenario
// replays identically run over run regardless of goroutine interleaving.
// Because the RPC layer is at-most-once (retries reuse the sequence number
// and the server replays cached responses), injected loss, duplication and
// delay degrade *latency*, never results: the conformance tests pin a
// faulted socket run byte-identical to a clean one.

import (
	"time"

	"kspot/internal/faults"
)

// Fault-dimension salts (distinct from the radio tier's, which hash
// message identities, not rpc sequences).
const (
	saltDropReq  uint64 = 0x77697265_0001
	saltDupReq   uint64 = 0x77697265_0002
	saltDelayReq uint64 = 0x77697265_0003
	saltDropResp uint64 = 0x77697265_0004
)

// Faults configures deterministic frame faults on a client's socket path.
// Probabilities are per (sequence, attempt); the zero value injects nothing.
type Faults struct {
	Seed int64
	// Drop is the probability a request frame is never written.
	Drop float64
	// Dup is the probability a request frame is written twice.
	Dup float64
	// Delay is the probability a request frame is delayed before writing.
	Delay float64
	// DropResp is the probability a matching response frame is discarded
	// after reading, forcing the attempt to time out and retry.
	DropResp float64
	// MaxDelay bounds an injected delay (default 2ms).
	MaxDelay time.Duration
	// LinkDelay models symmetric propagation latency: every request frame
	// sleeps LinkDelay before hitting the socket and every response frame
	// sleeps LinkDelay before delivery, so one call costs 2×LinkDelay of
	// round-trip time. Unlike the probabilistic dimensions it is applied
	// unconditionally — an RTT injection, not a loss model.
	LinkDelay time.Duration
}

// Enabled reports whether any fault dimension is armed.
func (f *Faults) Enabled() bool {
	return f != nil && (f.Drop > 0 || f.Dup > 0 || f.Delay > 0 || f.DropResp > 0)
}

func (f *Faults) dropReq(seq uint64, attempt int) bool {
	return f.Enabled() && f.Drop > 0 &&
		faults.KeyedUnit(f.Seed, saltDropReq, seq, uint64(attempt)) < f.Drop
}

func (f *Faults) dupReq(seq uint64, attempt int) bool {
	return f.Enabled() && f.Dup > 0 &&
		faults.KeyedUnit(f.Seed, saltDupReq, seq, uint64(attempt)) < f.Dup
}

func (f *Faults) delayReq(seq uint64, attempt int) time.Duration {
	if !f.Enabled() || f.Delay <= 0 {
		return 0
	}
	u := faults.KeyedUnit(f.Seed, saltDelayReq, seq, uint64(attempt))
	if u >= f.Delay {
		return 0
	}
	max := f.MaxDelay
	if max <= 0 {
		max = 2 * time.Millisecond
	}
	// Reuse the decision variate, rescaled to [0,1), for the duration: one
	// draw per dimension keeps the decision schedule independent of how
	// the duration is consumed.
	return time.Duration(float64(max) * (u / f.Delay))
}

func (f *Faults) dropResp(seq uint64, attempt int) bool {
	return f.Enabled() && f.DropResp > 0 &&
		faults.KeyedUnit(f.Seed, saltDropResp, seq, uint64(attempt)) < f.DropResp
}

// linkDelay returns the symmetric per-frame propagation delay (0 = none).
func (f *Faults) linkDelay() time.Duration {
	if f == nil {
		return 0
	}
	return f.LinkDelay
}
