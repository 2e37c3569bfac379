package model

import (
	"bytes"
	"math"
	"testing"
)

// FuzzPartialRoundTrip drives the wire codec with arbitrary field values.
// Within the wire format's representable ranges (int32 sums, uint16
// counts) encoding must round-trip exactly; outside them it must saturate,
// and saturation must be idempotent (re-encoding the decoded record
// reproduces the same bytes).
func FuzzPartialRoundTrip(f *testing.F) {
	f.Add(uint16(3), int64(7550), uint32(2), int32(3500), int32(4050))
	f.Add(uint16(0), int64(0), uint32(0), int32(0), int32(0))
	f.Add(uint16(65535), int64(math.MaxInt64), uint32(math.MaxUint32), int32(math.MinInt32), int32(math.MaxInt32))
	f.Add(uint16(1), int64(math.MinInt64), uint32(70000), int32(-100), int32(100))
	f.Fuzz(func(t *testing.T, group uint16, sum int64, count uint32, minFP, maxFP int32) {
		p := Partial{Group: GroupID(group), SumFP: sum, Count: count, MinFP: FixedPoint(minFP), MaxFP: FixedPoint(maxFP)}
		enc := AppendPartial(nil, p)
		if len(enc) != PartialWireSize {
			t.Fatalf("encoded %d bytes, want %d", len(enc), PartialWireSize)
		}
		dec, rest, err := DecodePartial(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode left %d bytes", len(rest))
		}
		// Saturation semantics.
		wantSum := sum
		if wantSum > math.MaxInt32 {
			wantSum = math.MaxInt32
		}
		if wantSum < math.MinInt32 {
			wantSum = math.MinInt32
		}
		wantCount := count
		if wantCount > 0xFFFF {
			wantCount = 0xFFFF
		}
		want := Partial{Group: GroupID(group), SumFP: wantSum, Count: wantCount, MinFP: FixedPoint(minFP), MaxFP: FixedPoint(maxFP)}
		if dec != want {
			t.Fatalf("decoded %+v, want %+v", dec, want)
		}
		// Idempotence: a decoded (already saturated) record re-encodes to
		// the identical bytes.
		if re := AppendPartial(nil, dec); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding changed bytes: %x -> %x", enc, re)
		}
	})
}

// FuzzDecodeView hammers the view codec with arbitrary byte strings: it
// must never panic, must reject lengths that are not a whole number of
// partials, and any accepted payload must re-encode/decode to a stable
// normal form (partials sorted by group, same-group partials merged).
func FuzzDecodeView(f *testing.F) {
	v := NewView()
	v.Add(Reading{Node: 1, Group: 2, Epoch: 0, Value: 40})
	v.Add(Reading{Node: 2, Group: 2, Epoch: 0, Value: 35})
	v.Add(Reading{Node: 3, Group: 5, Epoch: 0, Value: 80})
	f.Add(AppendView(nil, v))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, PartialWireSize))
	f.Add(bytes.Repeat([]byte{0x01}, PartialWireSize*3))
	f.Add([]byte{1, 2, 3}) // not a multiple of the record size
	f.Fuzz(func(t *testing.T, data []byte) {
		got := NewView()
		err := DecodeViewInto(got, data)
		if len(data)%PartialWireSize != 0 {
			if err == nil {
				t.Fatalf("accepted ragged payload of %d bytes", len(data))
			}
			return
		}
		if err != nil {
			return
		}
		// Decoding merges same-group partials, whose merged sums/counts may
		// exceed the wire ranges; encoding saturates them. So the stable
		// normal form begins after one encode: encode(decode(x)) must be a
		// byte-level fixpoint of decode∘encode.
		enc := AppendView(nil, got)
		again := NewView()
		if err := DecodeViewInto(again, enc); err != nil {
			t.Fatalf("re-encoded view failed to decode: %v", err)
		}
		if re := AppendView(nil, again); !bytes.Equal(re, enc) {
			t.Fatalf("normal form unstable: %x -> %x", enc, re)
		}
		if got.Len() != again.Len() {
			t.Fatalf("group count changed across encode: %d vs %d", got.Len(), again.Len())
		}
	})
}

// FuzzReadingAnswerRoundTrip covers the two remaining wire records.
func FuzzReadingAnswerRoundTrip(f *testing.F) {
	f.Add(uint16(4), uint16(2), uint32(9), int32(7550))
	f.Add(uint16(0), uint16(0), uint32(0), int32(math.MinInt32))
	f.Fuzz(func(t *testing.T, node, group uint16, epoch uint32, scoreFP int32) {
		r := Reading{Node: NodeID(node), Group: GroupID(group), Epoch: Epoch(epoch), Value: FromFixed(FixedPoint(scoreFP))}
		rd, rest, err := DecodeReading(AppendReading(nil, r))
		if err != nil || len(rest) != 0 {
			t.Fatalf("reading decode: err=%v rest=%d", err, len(rest))
		}
		if rd != r {
			t.Fatalf("reading round-trip: %+v -> %+v", r, rd)
		}
		a := Answer{Group: GroupID(group), Score: FromFixed(FixedPoint(scoreFP))}
		ad, rest, err := DecodeAnswer(AppendAnswer(nil, a))
		if err != nil || len(rest) != 0 {
			t.Fatalf("answer decode: err=%v rest=%d", err, len(rest))
		}
		if ad != a {
			t.Fatalf("answer round-trip: %+v -> %+v", a, ad)
		}
	})
}
