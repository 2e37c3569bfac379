package wire

// The epoch-round codec. One MsgEpochRound frame
// carries the epoch and every shared-acquisition group's query id; the
// MsgEpochRoundReply carries the epoch's sense readings plus every group's
// acquisition — the whole federated epoch in one round trip instead of
// 1 + G. Readings cross in a roster-positional encoding: both ends know
// the shard's sensor roster (fixed at handshake — the node set is static
// configuration), so a reading map is a presence bitmap over the roster,
// its groups and epochs as runs, and a value delta per node — not
// self-describing 12-byte keyed records. A group is a room of consecutive
// node ids and every sensed reading carries the reply's own epoch, so a
// 500-node shard of the scale-1000 deployment sends 63 bytes of bitmap,
// 51 of group runs (25 rooms), 4 of epoch runs (one run) and ≈ 916 of
// value deltas: ≈ 1 034 bytes an epoch, where a group and an epoch delta
// per node took ≈ 1 979. The decoder allocates one map, not one per
// record pass.
//
// Every encoding here is canonical — one byte string per value, enforced
// by strict (minimal-length) varint decoding, zeroed bitmap padding,
// maximal runs and status bytes derived from content — so retried frames
// are byte-identical and FuzzEpochRoundDecode can require decode∘encode to
// be the identity.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

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

// AppendRosterReadings appends readings positionally over the roster:
//
//	bitmap      one bit per roster slot, ascending node id, zero padding
//	group runs  runs uvarint, then (group uvarint, len−1 uvarint) per run
//	epoch runs  runs uvarint, then (epoch − e zigzag, len−1 uvarint) per run
//	values      per present node, its centi-quantized value as a zigzag
//	            delta from the previous present node's (the first from 0)
//
// A run is a maximal stretch of present nodes, in roster order, that
// share the column's value, so adjacent runs differ and a column's run
// lengths sum to the bitmap's popcount. Quantization matches the keyed
// reading record exactly — group and epoch truncate to their wire widths,
// the value rides model.ToFixed. A reading keyed outside the roster (or
// keyed inconsistently with its Node field) cannot be represented and
// errors. The block is built in dst: appending into a dst with the
// capacity allocates nothing.
func AppendRosterReadings(dst []byte, roster []model.NodeID, e model.Epoch, readings map[model.NodeID]model.Reading) ([]byte, error) {
	// Pass 1: the bitmap, and each column's run count and pair bytes.
	at := len(dst)
	dst = appendZeros(dst, (len(roster)+7)/8)
	var groups, epochs runColumn
	present := 0
	for i, id := range roster {
		r, ok := readings[id]
		if !ok {
			continue
		}
		if r.Node != id {
			return nil, fmt.Errorf("wire: reading keyed %d carries node %d", id, r.Node)
		}
		dst[at+i/8] |= 1 << (i % 8)
		present++
		groups.add(nil, groupKey(r))
		epochs.add(nil, epochKey(r, e))
	}
	if present != len(readings) {
		return nil, fmt.Errorf("wire: %d of %d readings outside the %d-node roster", len(readings)-present, len(readings), len(roster))
	}
	groups.close(nil)
	epochs.close(nil)
	// Pass 2: both columns written into their reserved bytes, the value
	// chain appended behind them.
	dst = groups.reserve(dst)
	dst = epochs.reserve(dst)
	prev := int64(0)
	for i, id := range roster {
		if dst[at+i/8]&(1<<(i%8)) == 0 {
			continue
		}
		r := readings[id]
		groups.add(dst, groupKey(r))
		epochs.add(dst, epochKey(r, e))
		fixed := int64(model.ToFixed(r.Value))
		dst = appendZigzag(dst, fixed-prev)
		prev = fixed
	}
	groups.close(dst)
	epochs.close(dst)
	return dst, nil
}

// groupKey and epochKey are a reading's run-column values: its group, and
// its epoch as a zigzag delta from the block's reference epoch e, each
// truncated to its wire width.
func groupKey(r model.Reading) uint64 { return uint64(uint16(r.Group)) }

func epochKey(r model.Reading, e model.Epoch) uint64 {
	return zigzag(int64(uint32(r.Epoch)) - int64(uint32(e)))
}

// runColumn lays out one run-coded column in two passes over the present
// nodes. With a nil buffer add and close only count the runs and their
// pair bytes; reserve then appends the run count and room for the pairs,
// and the second pass writes each closed run's pair into that room.
type runColumn struct {
	v, n uint64 // the open run's value and length (n == 0: none open)
	runs int    // runs closed in the counting pass
	size int    // bytes of their (value, len−1) pairs
	at   int    // where the next pair goes in the writing pass
}

// add extends the column by one node's value, closing the open run when
// the value differs.
func (c *runColumn) add(dst []byte, v uint64) {
	if c.n > 0 && v == c.v {
		c.n++
		return
	}
	c.close(dst)
	c.v, c.n = v, 1
}

// close ends the open run: counted when dst is nil, written at c.at
// otherwise.
func (c *runColumn) close(dst []byte) {
	if c.n == 0 {
		return
	}
	if dst == nil {
		c.runs++
		c.size += uvarintLen(c.v) + uvarintLen(c.n-1)
	} else {
		c.at += binary.PutUvarint(dst[c.at:], c.v)
		c.at += binary.PutUvarint(dst[c.at:], c.n-1)
	}
	c.n = 0
}

// reserve appends the column's run count and room for its pairs.
func (c *runColumn) reserve(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(c.runs))
	c.at = len(dst)
	return appendZeros(dst, c.size)
}

// appendZeros appends n zero bytes, allocating only when dst lacks room.
func appendZeros(dst []byte, n int) []byte {
	dst = slices.Grow(dst, n)
	dst = dst[:len(dst)+n]
	clear(dst[len(dst)-n:])
	return dst
}

// DecodeRosterReadings decodes a positional readings block from the front
// of b, returning the rest. Strict, so that only AppendRosterReadings'
// own output decodes: padding bits beyond the roster must be zero,
// varints minimal, adjacent runs distinct, each column's run lengths must
// sum to the bitmap's popcount, and every decoded field must fit its wire
// width.
func DecodeRosterReadings(b []byte, roster []model.NodeID, e model.Epoch) (map[model.NodeID]model.Reading, []byte, error) {
	nb := (len(roster) + 7) / 8
	if len(b) < nb {
		return nil, nil, io.ErrUnexpectedEOF
	}
	bitmap := b[:nb]
	if pad := nb*8 - len(roster); pad > 0 && bitmap[nb-1]>>(8-pad) != 0 {
		return nil, nil, fmt.Errorf("wire: roster bitmap padding bits set")
	}
	present := 0
	for _, m := range bitmap {
		present += bits.OnesCount8(m)
	}
	groups, b, err := decodeRunColumn(b[nb:], present, func(v uint64) error {
		if v > math.MaxUint16 {
			return fmt.Errorf("wire: roster reading group %d overflows", v)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	epochs, b, err := decodeRunColumn(b, present, func(v uint64) error {
		if epoch := int64(uint32(e)) + unzigzag(v); epoch < 0 || epoch > math.MaxUint32 {
			return fmt.Errorf("wire: roster reading epoch delta %d overflows", unzigzag(v))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := make(map[model.NodeID]model.Reading, present)
	prev := int64(0)
	for i, id := range roster {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		var valueD int64
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
			Group: model.GroupID(groups.next()),
			Epoch: model.Epoch(int64(uint32(e)) + unzigzag(epochs.next())),
			Value: model.FromFixed(model.FixedPoint(fixed)),
		}
	}
	return out, b, nil
}

// decodeRunColumn validates one run-coded column at the front of b
// against total present nodes — a run count the bytes left can hold,
// minimal varints, each run's value accepted by check and different from
// the run before it, run lengths summing to total — and returns a cursor
// over its runs and the rest of b.
func decodeRunColumn(b []byte, total int, check func(uint64) error) (runCursor, []byte, error) {
	runs, b, err := decodeUvarint(b)
	if err != nil {
		return runCursor{}, nil, err
	}
	if runs > uint64(len(b))/2 { // every run takes at least two bytes
		return runCursor{}, nil, io.ErrUnexpectedEOF
	}
	pairs, covered, last := b, 0, uint64(0)
	for r := uint64(0); r < runs; r++ {
		var v, n uint64
		if v, b, err = decodeUvarint(b); err != nil {
			return runCursor{}, nil, err
		}
		if r > 0 && v == last {
			return runCursor{}, nil, fmt.Errorf("wire: roster run %d repeats the run before it", r)
		}
		if err = check(v); err != nil {
			return runCursor{}, nil, err
		}
		if n, b, err = decodeUvarint(b); err != nil {
			return runCursor{}, nil, err
		}
		if n >= uint64(total-covered) {
			return runCursor{}, nil, fmt.Errorf("wire: roster runs cover more than %d nodes", total)
		}
		covered += int(n) + 1
		last = v
	}
	if covered != total {
		return runCursor{}, nil, fmt.Errorf("wire: roster runs cover %d of %d nodes", covered, total)
	}
	return runCursor{b: pairs[:len(pairs)-len(b)]}, b, nil
}

// runCursor reads a validated column one present node at a time.
type runCursor struct {
	b    []byte // the pairs of the runs not yet opened
	v, n uint64 // the open run's value and the nodes left in it
}

func (c *runCursor) next() uint64 {
	if c.n == 0 {
		v, k := binary.Uvarint(c.b)
		n, m := binary.Uvarint(c.b[k:])
		c.b, c.v, c.n = c.b[k+m:], v, n+1
	}
	c.n--
	return c.v
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

// zigzag maps v to a uvarint-friendly unsigned: 0, −1, 1, −2 … → 0, 1, 2, 3 …
func zigzag(v int64) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendZigzag appends v zigzag-mapped as a uvarint.
func appendZigzag(dst []byte, v int64) []byte {
	return appendUvarint(dst, zigzag(v))
}

// decodeZigzag decodes a zigzag-mapped varint from the front of b.
func decodeZigzag(b []byte) (int64, []byte, error) {
	u, rest, err := decodeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	return unzigzag(u), rest, nil
}
