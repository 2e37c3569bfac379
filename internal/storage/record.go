package storage

// The store's two record kinds share one header and one node-set form. An
// epoch record is the readings of every node that sensed one epoch:
//
//	kind u8 | epoch u32 | runs uvarint | (gap uvarint, len−1 uvarint)×runs |
//	base zig-zag varint | width u8 | (value − base, width bytes LE)×count
//
// and a node record (image.go) is every roster node's energy-ledger total:
//
//	kind u8 | epoch u32 | runs uvarint | (gap uvarint, len−1 uvarint)×runs |
//	(f64 bits µJ)×count
//
// The node set is a list of runs of consecutive ids. The first gap is the
// first node's id; each later gap is the run's first id minus the previous
// run's last id minus 2, so runs are maximal and nodes strictly ascending
// by construction. count, the sum of the run lengths, is not stored.
// Values are the model codec's fixed64 quantized form (s64 centi-units),
// written as offsets from base, the record's minimum, in width bytes, the
// fewest that hold max − min (0 when every value is equal; an empty record
// is 0 runs, base 0, width 0).
//
// Each record has one canonical form, and decoding enforces it: every
// varint is minimal, the last node is at most 65 535, width is at most 8
// and minimal, some offset is 0, no value leaves the int64 range and no
// byte trails. The run count is checked against the bytes left before
// anything is read, so no input over-allocates.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"kspot/internal/model"
)

const (
	recEpoch      = 1     // an epoch record
	recNodes      = 2     // a node record: an image's last, a served shard's ledger
	recHeaderSize = 1 + 4 // kind | epoch
	maxNode       = math.MaxUint16
)

// epochOf reads a validated record's epoch.
func epochOf(rec []byte) model.Epoch { return model.Epoch(binary.LittleEndian.Uint32(rec[1:])) }

func appendRecordHeader(dst []byte, kind byte, e model.Epoch) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, kind), uint32(e))
}

// appendNodeSet appends the run-coded form of nodes, strictly ascending.
func appendNodeSet(dst []byte, nodes []model.NodeID) []byte {
	runs := 0
	for i := range nodes {
		if i == 0 || nodes[i] != nodes[i-1]+1 {
			runs++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(runs))
	for i := 0; i < len(nodes); {
		j := i + 1
		for j < len(nodes) && nodes[j] == nodes[j-1]+1 {
			j++
		}
		gap := uint64(nodes[i])
		if i > 0 {
			gap = uint64(nodes[i]) - uint64(nodes[i-1]) - 2
		}
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, gap), uint64(j-i-1))
		i = j
	}
	return dst
}

// uvarint reads a minimal uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("storage: record varint truncated or overflows")
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("storage: record varint % x is not minimal", b[:n])
	}
	return x, b[n:], nil
}

// nodeSet is a validated node set; enc aliases the record's run bytes.
type nodeSet struct {
	enc   []byte
	count int
}

// decodeNodeSet validates the node set at the front of b and returns it
// and the bytes after it.
func decodeNodeSet(b []byte) (nodeSet, []byte, error) {
	runs, b, err := uvarint(b)
	if err != nil {
		return nodeSet{}, nil, err
	}
	if runs > uint64(len(b))/2 {
		return nodeSet{}, nil, fmt.Errorf("storage: record counts %d node runs in %d bytes", runs, len(b))
	}
	set, next := nodeSet{enc: b}, uint64(0) // next: the lowest id the next run may start at
	for range runs {
		var gap, span uint64
		if gap, b, err = uvarint(b); err == nil {
			span, b, err = uvarint(b)
		}
		if err != nil {
			return nodeSet{}, nil, err
		}
		if gap > maxNode || span > maxNode || next+gap+span > maxNode {
			return nodeSet{}, nil, fmt.Errorf("storage: record node beyond %d", maxNode)
		}
		next += gap + span + 2
		set.count += int(span) + 1
	}
	set.enc = set.enc[:len(set.enc)-len(b)]
	return set, b, nil
}

// runs yields each run's first node and length, in order.
func (s nodeSet) runs(yield func(first model.NodeID, n int) bool) {
	b, next := s.enc, uint64(0)
	for len(b) > 0 {
		gap, n := binary.Uvarint(b)
		span, m := binary.Uvarint(b[n:])
		b = b[n+m:]
		if !yield(model.NodeID(next+gap), int(span)+1) {
			return
		}
		next += gap + span + 2
	}
}

// ids yields the set's nodes in ascending order.
func (s nodeSet) ids(yield func(model.NodeID) bool) {
	for first, n := range s.runs {
		for i := range n {
			if !yield(first + model.NodeID(i)) {
				return
			}
		}
	}
}

// appendEpochRecord encodes an epoch record: nodes strictly ascending,
// vals index-aligned with them.
func appendEpochRecord(dst []byte, e model.Epoch, nodes []model.NodeID, vals []int64) []byte {
	dst = appendNodeSet(appendRecordHeader(dst, recEpoch, e), nodes)
	var lo, hi int64
	if len(vals) > 0 {
		lo, hi = vals[0], vals[0]
		for _, v := range vals[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	width := widthOf(uint64(hi) - uint64(lo))
	dst = append(binary.AppendVarint(dst, lo), byte(width))
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v)-uint64(lo))
		dst = append(dst, buf[:width]...)
	}
	return dst
}

// widthOf is the fewest bytes that hold x.
func widthOf(x uint64) int { return (bits.Len64(x) + 7) / 8 }

// epochRecord is a validated epoch record; its slices alias the payload.
type epochRecord struct {
	epoch model.Epoch
	set   nodeSet
	base  int64
	width int
	vals  []byte // set.count values, width bytes each
}

// decodeEpochRecord validates an epoch record in one pass: the node set's
// runs, then one scan of the fixed-width offsets.
func decodeEpochRecord(p []byte) (epochRecord, error) {
	if len(p) == 0 || p[0] != recEpoch {
		return epochRecord{}, fmt.Errorf("storage: epoch record header invalid")
	}
	return decodeEpochBody(p[1:])
}

// decodeEpochBody is decodeEpochRecord after the kind byte.
func decodeEpochBody(b []byte) (epochRecord, error) {
	if len(b) < 4 {
		return epochRecord{}, fmt.Errorf("storage: epoch record of %d bytes has no epoch", len(b))
	}
	r := epochRecord{epoch: model.Epoch(binary.LittleEndian.Uint32(b))}
	set, b, err := decodeNodeSet(b[4:])
	if err != nil {
		return epochRecord{}, fmt.Errorf("storage: epoch %d: %w", r.epoch, err)
	}
	zz, b, err := uvarint(b)
	if err != nil {
		return epochRecord{}, fmt.Errorf("storage: epoch %d base: %w", r.epoch, err)
	}
	r.set, r.base = set, int64(zz>>1)^-int64(zz&1)
	if len(b) == 0 || b[0] > 8 {
		return epochRecord{}, fmt.Errorf("storage: epoch %d record has no value width of 0..8", r.epoch)
	}
	r.width, r.vals = int(b[0]), b[1:]
	if len(r.vals) != set.count*r.width {
		return epochRecord{}, fmt.Errorf("storage: epoch %d record holds %d value bytes for %d nodes of width %d", r.epoch, len(r.vals), set.count, r.width)
	}
	if set.count == 0 && r.base != 0 {
		return epochRecord{}, fmt.Errorf("storage: epoch %d empty record has base %d", r.epoch, r.base)
	}
	lo, hi := offsetRange(r.vals, r.width)
	switch {
	case set.count > 0 && lo != 0:
		return epochRecord{}, fmt.Errorf("storage: epoch %d record's least offset is %d, not 0", r.epoch, lo)
	case widthOf(hi) != r.width:
		return epochRecord{}, fmt.Errorf("storage: epoch %d record's width %d is not the fewest bytes for offset %d", r.epoch, r.width, hi)
	case hi > uint64(math.MaxInt64)-uint64(r.base):
		return epochRecord{}, fmt.Errorf("storage: epoch %d record's value leaves the int64 range", r.epoch)
	}
	return r, nil
}

// offsetRange scans fixed-width offsets for their least and greatest;
// with none both are 0. It is the bulk of recovery's validation, so the
// width scale-1000 readings take (2 bytes: a span of 62.13 units) scans
// without readOffset's copy, which costs recovery about 2.5×.
func offsetRange(vals []byte, width int) (lo, hi uint64) {
	if len(vals) == 0 || width == 0 {
		return 0, 0
	}
	lo = math.MaxUint64
	if width == 2 {
		for i := 0; i < len(vals); i += 2 {
			x := uint64(binary.LittleEndian.Uint16(vals[i:]))
			lo, hi = min(lo, x), max(hi, x)
		}
		return lo, hi
	}
	for i := 0; i < len(vals); i += width {
		x := readOffset(vals[i:], width)
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func readOffset(b []byte, width int) uint64 {
	var buf [8]byte
	copy(buf[:], b[:width])
	return binary.LittleEndian.Uint64(buf[:])
}

// readings returns the record's nodes and their values, index-aligned.
func (r epochRecord) readings() ([]model.NodeID, []int64) {
	nodes, vals := make([]model.NodeID, 0, r.set.count), make([]int64, r.set.count)
	for i := range vals {
		vals[i] = r.base + int64(readOffset(r.vals[i*r.width:], r.width))
	}
	return slices.AppendSeq(nodes, r.set.ids), vals
}

// readingsOf decodes a record this package has validated (nil for none).
func readingsOf(rec []byte) ([]model.NodeID, []int64) {
	if rec == nil {
		return nil, nil
	}
	r, err := decodeEpochRecord(rec)
	if err != nil {
		panic(fmt.Sprintf("storage: a validated record no longer decodes: %v", err))
	}
	return r.readings()
}

// DecodeReadings decodes an epoch record's payload after its kind byte:
// the epoch, its nodes ascending and their values, index-aligned.
func DecodeReadings(b []byte) (model.Epoch, []model.NodeID, []int64, error) {
	r, err := decodeEpochBody(b)
	if err != nil {
		return 0, nil, nil, err
	}
	nodes, vals := r.readings()
	return r.epoch, nodes, vals, nil
}

// nodeRecord encodes a node record's payload, rows ascending by node.
func nodeRecord(e model.Epoch, rows []NodeEnergy) []byte {
	nodes := make([]model.NodeID, len(rows))
	for i, r := range rows {
		nodes[i] = r.Node
	}
	dst := appendNodeSet(appendRecordHeader(nil, recNodes, e), nodes)
	for _, r := range rows {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.UJ))
	}
	return dst
}

// DecodeEnergies decodes a node record's payload after its kind byte,
// rejecting a node set not in canonical form, a length that disagrees
// with it and a total that is not a finite, non-negative µJ count.
func DecodeEnergies(b []byte) (model.Epoch, []NodeEnergy, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("storage: node record of %d bytes has no epoch", len(b))
	}
	set, totals, err := decodeNodeSet(b[4:])
	if err != nil {
		return 0, nil, fmt.Errorf("storage: node record: %w", err)
	}
	if len(totals) != 8*set.count {
		return 0, nil, fmt.Errorf("storage: node record holds %d total bytes for %d nodes", len(totals), set.count)
	}
	rows := make([]NodeEnergy, 0, set.count)
	for id := range set.ids {
		r := NodeEnergy{id, math.Float64frombits(binary.LittleEndian.Uint64(totals[8*len(rows):]))}
		if !(r.UJ >= 0) || math.IsInf(r.UJ, 1) {
			return 0, nil, fmt.Errorf("storage: node record node %d total %v is not a µJ count", r.Node, r.UJ)
		}
		rows = append(rows, r)
	}
	return model.Epoch(binary.LittleEndian.Uint32(b)), rows, nil
}

// maxEpochRecord bounds an epoch record of at most n nodes: the header, a
// run per node of two uvarints of at most 3 bytes (ids are below 2¹⁶), the
// widest base, the width byte and 8 bytes a value.
func maxEpochRecord(n int) int { return recHeaderSize + 3 + n*(2*3+8) + binary.MaxVarintLen64 + 1 }
