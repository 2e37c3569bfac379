package wire

// The epoch-round codec. One MsgEpochRound frame
// carries the epoch and every shared-acquisition group's query id; the
// MsgEpochRoundReply carries the epoch's sense readings plus every group's
// acquisition — the whole federated epoch in one round trip instead of
// 1 + G. Readings cross in a roster-positional encoding: both ends know
// the shard's sensor roster (fixed at handshake — the node set is static
// configuration), so a reading map is a presence bitmap over the roster
// plus per-node varint deltas, not self-describing 12-byte keyed records.
// For a 250-node shard that is ~4 bytes of bitmap plus a few bytes per
// node instead of 12, and the decoder allocates one map, not one per
// record pass.
//
// Every encoding here is canonical — one byte string per value, enforced
// by strict (minimal-length) varint decoding, zeroed bitmap padding and
// status bytes derived from content — so retried frames are byte-identical
// and FuzzEpochRoundDecode can require decode∘encode to be the identity.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kspot/internal/model"
)

// EpochRoundReq asks the shard to sense the epoch and run one epoch of
// every listed attached query, in order, in a single round trip.
type EpochRoundReq struct {
	Epoch   model.Epoch
	Queries []uint32 // one attached query id per shared-acquisition group
}

// RoundGroup is one group's slice of an epoch-round reply. Exactly one of
// Err / (Answers, Override) is meaningful: a non-empty Err means this
// group's acquisition failed (the other groups and the sensing stand).
// Override is nil unless the query runs on derived per-node inputs.
type RoundGroup struct {
	Err      string
	Answers  []model.Answer
	Override map[model.NodeID]model.Reading
}

// EpochRoundReply is the shard's whole epoch: the post-commit sense
// readings plus every group's acquisition, in request order.
type EpochRoundReply struct {
	Epoch    model.Epoch
	Readings map[model.NodeID]model.Reading
	Groups   []RoundGroup
}

// Group status bytes (derived from content, making the encoding canonical).
const (
	roundGroupOK       = 0 // answers, shared sensing
	roundGroupOverride = 1 // answers + derived readings
	roundGroupErr      = 2 // error string
)

// AppendEpochRound appends the wire form of r: epoch, group count, then
// one query id per group.
func AppendEpochRound(dst []byte, r EpochRoundReq) []byte {
	dst = AppendEpoch(dst, r.Epoch)
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(r.Queries)))
	dst = append(dst, n[:]...)
	for _, q := range r.Queries {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], q)
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeEpochRound decodes an epoch-round request.
func DecodeEpochRound(b []byte) (EpochRoundReq, error) {
	if len(b) < 6 {
		return EpochRoundReq{}, io.ErrUnexpectedEOF
	}
	r := EpochRoundReq{Epoch: model.Epoch(binary.LittleEndian.Uint32(b[0:]))}
	n := int(binary.LittleEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) != n*4 {
		return EpochRoundReq{}, fmt.Errorf("wire: epoch-round payload %d bytes for %d queries", len(b), n)
	}
	r.Queries = make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		r.Queries = append(r.Queries, binary.LittleEndian.Uint32(b[4*i:]))
	}
	return r, nil
}

// AppendEpochRoundReply appends the wire form of r: epoch, the sense
// readings as a roster block, each group as a status byte followed by
// either an error string or answers (+ an override roster block).
func AppendEpochRoundReply(dst []byte, roster []model.NodeID, r EpochRoundReply) ([]byte, error) {
	dst = AppendEpoch(dst, r.Epoch)
	var err error
	if dst, err = AppendRosterReadings(dst, roster, r.Epoch, r.Readings); err != nil {
		return nil, err
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(r.Groups)))
	dst = append(dst, n[:]...)
	for _, g := range r.Groups {
		switch {
		case g.Err != "":
			dst = append(dst, roundGroupErr)
			dst = appendString(dst, g.Err)
		default:
			status := byte(roundGroupOK)
			if g.Override != nil {
				status = roundGroupOverride
			}
			dst = append(dst, status)
			binary.LittleEndian.PutUint16(n[:], uint16(len(g.Answers)))
			dst = append(dst, n[:]...)
			for _, a := range g.Answers {
				dst = model.AppendAnswer(dst, a)
			}
			if g.Override != nil {
				if dst, err = AppendRosterReadings(dst, roster, r.Epoch, g.Override); err != nil {
					return nil, err
				}
			}
		}
	}
	return dst, nil
}

// DecodeEpochRoundReply decodes an epoch-round reply against the session's
// roster. The decode is strict: any non-canonical byte string is rejected.
func DecodeEpochRoundReply(b []byte, roster []model.NodeID) (EpochRoundReply, error) {
	if len(b) < 4 {
		return EpochRoundReply{}, io.ErrUnexpectedEOF
	}
	r := EpochRoundReply{Epoch: model.Epoch(binary.LittleEndian.Uint32(b[0:]))}
	var err error
	if r.Readings, b, err = DecodeRosterReadings(b[4:], roster, r.Epoch); err != nil {
		return EpochRoundReply{}, err
	}
	if len(b) < 2 {
		return EpochRoundReply{}, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b[0:]))
	b = b[2:]
	r.Groups = make([]RoundGroup, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return EpochRoundReply{}, io.ErrUnexpectedEOF
		}
		status := b[0]
		b = b[1:]
		var g RoundGroup
		switch status {
		case roundGroupErr:
			if g.Err, b, err = decodeString(b); err != nil {
				return EpochRoundReply{}, err
			}
			if g.Err == "" {
				return EpochRoundReply{}, fmt.Errorf("wire: epoch-round group %d: empty error", i)
			}
		case roundGroupOK, roundGroupOverride:
			if len(b) < 2 {
				return EpochRoundReply{}, io.ErrUnexpectedEOF
			}
			m := int(binary.LittleEndian.Uint16(b[0:]))
			b = b[2:]
			if len(b) < m*model.AnswerWireSize {
				return EpochRoundReply{}, io.ErrUnexpectedEOF
			}
			g.Answers = make([]model.Answer, 0, m)
			for j := 0; j < m; j++ {
				var a model.Answer
				if a, b, err = model.DecodeAnswer(b); err != nil {
					return EpochRoundReply{}, err
				}
				g.Answers = append(g.Answers, a)
			}
			if status == roundGroupOverride {
				if g.Override, b, err = DecodeRosterReadings(b, roster, r.Epoch); err != nil {
					return EpochRoundReply{}, err
				}
			}
		default:
			return EpochRoundReply{}, fmt.Errorf("wire: epoch-round group %d: status %d", i, status)
		}
		r.Groups = append(r.Groups, g)
	}
	if len(b) != 0 {
		return EpochRoundReply{}, fmt.Errorf("wire: %d trailing bytes after epoch-round reply", len(b))
	}
	return r, nil
}

// AppendRosterReadings appends readings positionally over the roster: a
// presence bitmap (one bit per roster slot, ascending node id), then per
// present node its group (uvarint), epoch (zigzag delta from the block's
// reference epoch e) and centi-quantized value (zigzag delta from the
// previous present node's value). Quantization matches the keyed reading
// record exactly — group and epoch truncate to their wire widths, the
// value rides model.ToFixed — so the two encodings decode identically.
// A reading keyed outside the roster (or keyed inconsistently with its
// Node field) cannot be represented and errors.
func AppendRosterReadings(dst []byte, roster []model.NodeID, e model.Epoch, readings map[model.NodeID]model.Reading) ([]byte, error) {
	bitmap := make([]byte, (len(roster)+7)/8)
	present := 0
	for i, id := range roster {
		if r, ok := readings[id]; ok {
			if r.Node != id {
				return nil, fmt.Errorf("wire: reading keyed %d carries node %d", id, r.Node)
			}
			bitmap[i/8] |= 1 << (i % 8)
			present++
		}
	}
	if present != len(readings) {
		return nil, fmt.Errorf("wire: %d of %d readings outside the %d-node roster", len(readings)-present, len(readings), len(roster))
	}
	dst = append(dst, bitmap...)
	prev := int64(0)
	for i, id := range roster {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		r := readings[id]
		dst = appendUvarint(dst, uint64(uint16(r.Group)))
		dst = appendZigzag(dst, int64(uint32(r.Epoch))-int64(uint32(e)))
		fixed := int64(model.ToFixed(r.Value))
		dst = appendZigzag(dst, fixed-prev)
		prev = fixed
	}
	return dst, nil
}

// DecodeRosterReadings decodes a positional readings block from the front
// of b, returning the rest. Strict: padding bits beyond the roster must be
// zero, varints minimal, and every decoded field must fit its wire width.
func DecodeRosterReadings(b []byte, roster []model.NodeID, e model.Epoch) (map[model.NodeID]model.Reading, []byte, error) {
	nb := (len(roster) + 7) / 8
	if len(b) < nb {
		return nil, nil, io.ErrUnexpectedEOF
	}
	bitmap := b[:nb]
	b = b[nb:]
	if pad := nb*8 - len(roster); pad > 0 && bitmap[nb-1]>>(8-pad) != 0 {
		return nil, nil, fmt.Errorf("wire: roster bitmap padding bits set")
	}
	out := make(map[model.NodeID]model.Reading, len(roster))
	prev := int64(0)
	for i, id := range roster {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		var group uint64
		var epochD, valueD int64
		var err error
		if group, b, err = decodeUvarint(b); err != nil {
			return nil, nil, err
		}
		if group > math.MaxUint16 {
			return nil, nil, fmt.Errorf("wire: roster reading group %d overflows", group)
		}
		if epochD, b, err = decodeZigzag(b); err != nil {
			return nil, nil, err
		}
		epoch := int64(uint32(e)) + epochD
		if epoch < 0 || epoch > math.MaxUint32 {
			return nil, nil, fmt.Errorf("wire: roster reading epoch delta %d overflows", epochD)
		}
		if valueD, b, err = decodeZigzag(b); err != nil {
			return nil, nil, err
		}
		fixed := prev + valueD
		if fixed < math.MinInt32 || fixed > math.MaxInt32 {
			return nil, nil, fmt.Errorf("wire: roster reading value delta %d overflows", valueD)
		}
		prev = fixed
		out[id] = model.Reading{
			Node:  id,
			Group: model.GroupID(group),
			Epoch: model.Epoch(epoch),
			Value: model.FromFixed(model.FixedPoint(fixed)),
		}
	}
	return out, b, nil
}

// appendUvarint appends v as a standard LEB128 uvarint.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// uvarintLen is the minimal encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >>= 7; v > 0; v >>= 7 {
		n++
	}
	return n
}

// decodeUvarint decodes a uvarint from the front of b, rejecting
// truncation, overflow and non-minimal encodings (the codec is canonical).
func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: bad varint")
	}
	if n != uvarintLen(v) {
		return 0, nil, fmt.Errorf("wire: non-minimal varint")
	}
	return v, b[n:], nil
}

// appendZigzag appends v zigzag-mapped as a uvarint.
func appendZigzag(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// decodeZigzag decodes a zigzag-mapped varint from the front of b.
func decodeZigzag(b []byte) (int64, []byte, error) {
	u, rest, err := decodeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	return int64(u>>1) ^ -int64(u&1), rest, nil
}
