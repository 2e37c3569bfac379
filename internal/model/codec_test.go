package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartialCodecRoundTrip(t *testing.T) {
	p := Partial{Group: 42, SumFP: 12345, Count: 7, MinFP: -150, MaxFP: 9999}
	buf := AppendPartial(nil, p)
	if len(buf) != PartialWireSize {
		t.Fatalf("encoded size = %d, want %d", len(buf), PartialWireSize)
	}
	got, rest, err := DecodePartial(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	if got != p {
		t.Errorf("round trip %+v -> %+v", p, got)
	}
}

func TestPartialCodecCountSaturates(t *testing.T) {
	p := Partial{Group: 1, SumFP: 100, Count: 1 << 20, MinFP: 100, MaxFP: 100}
	got, _, err := DecodePartial(AppendPartial(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 0xFFFF {
		t.Errorf("count = %d, want saturation at 65535", got.Count)
	}
}

func TestAnswerCodecRoundTrip(t *testing.T) {
	a := Answer{Group: 9, Score: 74.5}
	buf := AppendAnswer(nil, a)
	if len(buf) != AnswerWireSize {
		t.Fatalf("size = %d", len(buf))
	}
	got, _, err := DecodeAnswer(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Errorf("round trip %+v -> %+v", a, got)
	}
}

func TestReadingCodecRoundTrip(t *testing.T) {
	r := Reading{Node: 3, Group: 4, Epoch: 12345, Value: -42.42}
	buf := AppendReading(nil, r)
	if len(buf) != ReadingWireSize {
		t.Fatalf("size = %d", len(buf))
	}
	got, _, err := DecodeReading(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip %+v -> %+v", r, got)
	}
}

func TestDecodeShortBuffers(t *testing.T) {
	if _, _, err := DecodePartial(make([]byte, PartialWireSize-1)); err == nil {
		t.Error("DecodePartial accepted short buffer")
	}
	if _, _, err := DecodeAnswer(make([]byte, AnswerWireSize-1)); err == nil {
		t.Error("DecodeAnswer accepted short buffer")
	}
	if _, _, err := DecodeReading(make([]byte, ReadingWireSize-1)); err == nil {
		t.Error("DecodeReading accepted short buffer")
	}
}

func TestViewCodecRoundTrip(t *testing.T) {
	v := NewView()
	for i := 0; i < 8; i++ {
		v.Add(Reading{Node: NodeID(i), Group: GroupID(i % 3), Value: Value(i) * 1.25})
	}
	buf := AppendView(nil, v)
	if len(buf) != ViewWireSize(v) {
		t.Fatalf("encoded %d bytes, ViewWireSize says %d", len(buf), ViewWireSize(v))
	}
	got := NewView()
	got.Add(Reading{Node: 99, Group: 99, Value: 1}) // stale content the decode must reset
	if err := DecodeViewInto(got, buf); err != nil {
		t.Fatal(err)
	}
	if got.Len() != v.Len() {
		t.Fatalf("decoded %d groups, want %d", got.Len(), v.Len())
	}
	for _, g := range v.Groups() {
		want, _ := v.Get(g)
		have, ok := got.Get(g)
		if !ok || have != want {
			t.Errorf("group %d: %+v, want %+v", g, have, want)
		}
	}
}

func TestDecodeViewBadLength(t *testing.T) {
	if err := DecodeViewInto(NewView(), make([]byte, PartialWireSize+1)); err == nil {
		t.Error("DecodeViewInto accepted misaligned payload")
	}
}

// Property: codec round-trips preserve quantized values for arbitrary inputs.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(group uint16, sumRaw int32, count uint16) bool {
		p := Partial{
			Group: GroupID(group),
			SumFP: int64(sumRaw),
			Count: uint32(count),
			MinFP: FixedPoint(sumRaw / 2),
			MaxFP: FixedPoint(sumRaw),
		}
		if p.Count == 0 {
			p.Count = 1
		}
		got, _, err := DecodePartial(AppendPartial(nil, p))
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeViewDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewView()
	for i := 0; i < 20; i++ {
		v.Add(Reading{Node: NodeID(i), Group: GroupID(rng.Intn(6)), Value: Value(rng.Intn(1000))})
	}
	a := AppendView(nil, v)
	b := AppendView(make([]byte, 3, 64), v)[3:] // behind a prefix, in a caller's buffer
	if string(a) != string(b) {
		t.Error("AppendView is not deterministic")
	}
}
