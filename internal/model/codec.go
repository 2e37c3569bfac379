package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire encoding. KSpot clients run on motes whose radio stack (TinyOS
// TOS_Msg) carries small fixed payloads, so every record type that crosses
// the air has a compact, fixed-size binary encoding. The simulator charges
// energy per encoded byte, which is why these sizes are load-bearing: they
// are the quantities the System Panel reports.
//
// All integers are little-endian, matching the ATmega128L on the MICA2.

// Encoded record sizes in bytes.
const (
	// PartialWireSize: group(2) + sum fixed-point(4) + count(2) + min(4) + max(4).
	PartialWireSize = 16
	// AnswerWireSize: group(2) + score fixed-point(4).
	AnswerWireSize = 6
	// ReadingWireSize: node(2) + group(2) + epoch(4) + value(4).
	ReadingWireSize = 12
)

var errShortBuffer = errors.New("model: buffer too short")

// AppendPartial appends the wire form of p to dst and returns the result.
// Counts saturate at 65535 — a single subtree never exceeds that in any
// deployment the paper contemplates, and tests assert we notice if it does.
func AppendPartial(dst []byte, p Partial) []byte {
	var buf [PartialWireSize]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(p.Group))
	sum := p.SumFP
	switch {
	case sum > math.MaxInt32:
		sum = math.MaxInt32
	case sum < math.MinInt32:
		sum = math.MinInt32
	}
	binary.LittleEndian.PutUint32(buf[2:], uint32(int32(sum)))
	count := p.Count
	if count > 0xFFFF {
		count = 0xFFFF
	}
	binary.LittleEndian.PutUint16(buf[6:], uint16(count))
	binary.LittleEndian.PutUint32(buf[8:], uint32(p.MinFP))
	binary.LittleEndian.PutUint32(buf[12:], uint32(p.MaxFP))
	return append(dst, buf[:]...)
}

// DecodePartial decodes one partial from the front of b.
func DecodePartial(b []byte) (Partial, []byte, error) {
	if len(b) < PartialWireSize {
		return Partial{}, b, errShortBuffer
	}
	p := Partial{
		Group: GroupID(binary.LittleEndian.Uint16(b[0:])),
		SumFP: int64(int32(binary.LittleEndian.Uint32(b[2:]))),
		Count: uint32(binary.LittleEndian.Uint16(b[6:])),
		MinFP: FixedPoint(binary.LittleEndian.Uint32(b[8:])),
		MaxFP: FixedPoint(binary.LittleEndian.Uint32(b[12:])),
	}
	return p, b[PartialWireSize:], nil
}

// AppendAnswer appends the wire form of a ranked answer.
func AppendAnswer(dst []byte, a Answer) []byte {
	var buf [AnswerWireSize]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(a.Group))
	binary.LittleEndian.PutUint32(buf[2:], uint32(ToFixed(a.Score)))
	return append(dst, buf[:]...)
}

// DecodeAnswer decodes one answer from the front of b.
func DecodeAnswer(b []byte) (Answer, []byte, error) {
	if len(b) < AnswerWireSize {
		return Answer{}, b, errShortBuffer
	}
	a := Answer{
		Group: GroupID(binary.LittleEndian.Uint16(b[0:])),
		Score: FromFixed(FixedPoint(binary.LittleEndian.Uint32(b[2:]))),
	}
	return a, b[AnswerWireSize:], nil
}

// AppendReading appends the wire form of a raw reading (used by the
// centralized baseline, which ships unaggregated tuples).
func AppendReading(dst []byte, r Reading) []byte {
	var buf [ReadingWireSize]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(r.Node))
	binary.LittleEndian.PutUint16(buf[2:], uint16(r.Group))
	binary.LittleEndian.PutUint32(buf[4:], uint32(r.Epoch))
	binary.LittleEndian.PutUint32(buf[8:], uint32(ToFixed(r.Value)))
	return append(dst, buf[:]...)
}

// DecodeReading decodes one reading from the front of b.
func DecodeReading(b []byte) (Reading, []byte, error) {
	if len(b) < ReadingWireSize {
		return Reading{}, b, errShortBuffer
	}
	r := Reading{
		Node:  NodeID(binary.LittleEndian.Uint16(b[0:])),
		Group: GroupID(binary.LittleEndian.Uint16(b[2:])),
		Epoch: Epoch(binary.LittleEndian.Uint32(b[4:])),
		Value: FromFixed(FixedPoint(binary.LittleEndian.Uint32(b[8:]))),
	}
	return r, b[ReadingWireSize:], nil
}

// AppendView appends the wire form of a view to dst — all partials, sorted
// by group for determinism — and returns the result. With enough capacity in
// dst it allocates nothing; the transports reuse one buffer per epoch sweep.
func AppendView(dst []byte, v *View) []byte {
	for _, p := range v.sorted {
		dst = AppendPartial(dst, p)
	}
	return dst
}

// DecodeViewInto resets v and decodes a concatenation of partials into it,
// reusing v's storage.
func DecodeViewInto(v *View, b []byte) error {
	if len(b)%PartialWireSize != 0 {
		return fmt.Errorf("model: view payload length %d not a multiple of %d", len(b), PartialWireSize)
	}
	v.Reset()
	for len(b) > 0 {
		p, rest, err := DecodePartial(b)
		if err != nil {
			return err
		}
		v.AddPartial(p)
		b = rest
	}
	return nil
}

// ViewWireSize reports the encoded size of a view without encoding it.
func ViewWireSize(v *View) int { return v.Len() * PartialWireSize }
