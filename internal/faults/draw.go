package faults

import (
	"kspot/internal/model"
	"kspot/internal/radio"
)

// The fault layer's randomness is a keyed hash, not an rng stream: a draw
// depends only on the seed and the message's identity, never on how many
// draws happened before it. Concurrent acquisitions transmit in arbitrary
// order, so an rng stream would assign different fates per run; the hash
// assigns the same fate everywhere. FNV-1a (64-bit) is cheap, allocation
// free, and plenty uniform for fault probabilities.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// toUnit maps a hash to [0,1). FNV's high bits avalanche poorly on short,
// similar inputs, so a murmur3-style finalizer mixes the state before the
// top 53 bits become the variate.
func toUnit(h uint64) float64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

// msgDigest folds a message's per-message identity — seed, link, kind,
// epoch and payload content — into a hash. Payload content participates so
// that distinct messages on the same link in the same epoch fade
// independently; operators encode payloads canonically (sorted), so
// content is as deterministic as length. Everything that varies per frame
// (fragment, attempt, fault dimension) is mixed in afterwards by
// frameDigest/unit, so the payload — the only O(n) part — is hashed once
// per message, not once per frame decision (frameModel memoizes it across
// a Transmit's fragment/retry loop).
func msgDigest(seed int64, msg radio.Message) uint64 {
	h := uint64(fnvOffset)
	h = fnv64(h, uint64(seed))
	h = fnv64(h, uint64(msg.From)<<32|uint64(msg.To)<<16|uint64(msg.Kind))
	h = fnv64(h, uint64(msg.Epoch))
	for _, b := range msg.Payload {
		h = fnvByte(h, b)
	}
	return h
}

// frameDigest specializes a message digest to one frame attempt.
func frameDigest(msgH uint64, frag, attempt int) uint64 {
	return fnv64(msgH, uint64(frag)<<32|uint64(uint32(attempt)))
}

// unit derives the uniform [0,1) variate of one fault dimension (salt)
// from a frame digest.
func unit(h, salt uint64) float64 {
	return toUnit(fnv64(h, salt))
}

// KeyedUnit derives a deterministic uniform [0,1) variate from a seed, a
// fault-dimension salt and an identity key — the same keyed-hash discipline
// as the radio tier's frame faults (a draw depends only on the seed and the
// event's identity, never on draw order), exported for layers that inject
// faults on other substrates. The wire tests' listener decorator
// (internal/wire/wiretest) keys its per-frame loss/dup/delay decisions on
// (seed, salt, rpc sequence, attempt) with it, so a socket fault scenario
// replays identically run over run.
func KeyedUnit(seed int64, salt uint64, key ...uint64) float64 {
	h := uint64(fnvOffset)
	h = fnv64(h, uint64(seed))
	h = fnv64(h, salt)
	for _, k := range key {
		h = fnv64(h, k)
	}
	return toUnit(h)
}

// stepDraw is the per-epoch transition variate of a link's Gilbert-Elliott
// chain — a function of (seed, link, epoch) only.
func stepDraw(seed int64, lo, hi model.NodeID, e model.Epoch) float64 {
	h := uint64(fnvOffset)
	h = fnv64(h, uint64(seed))
	h = fnv64(h, saltBurst)
	h = fnv64(h, uint64(lo)<<16|uint64(hi))
	h = fnv64(h, uint64(e))
	return toUnit(h)
}
