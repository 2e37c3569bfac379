package storage

// A snapshot image — what wire.MsgSnapshot streams out and wire.MsgRestore
// streams in — is a log image (log.go) of the store's own records: the
// ring's epoch records oldest first, byte for byte, then exactly one node
// record, every roster node ascending with its energy-ledger total:
//
//	kind u8 | epoch u32 | count u32 | (node u16, f64 bits µJ)×count
//
// Its epoch is the cursor, and it is the record a served shard appends to
// its shard.log after each epoch round (Store.RecordEnergies). The image
// is canonical, and decodeImage enforces it: the log's clean prefix is the
// whole image (a torn tail is a crash for a file on disk, but an error for
// an image), every epoch record is valid with epochs strictly ascending,
// the node record comes last and once and names every node a record
// carries, and its epoch is the newest record's (0 with no records).

import (
	"encoding/binary"
	"fmt"
	"math"

	"kspot/internal/model"
)

const (
	recNodes      = 2     // the node record: an image's last, a served shard's ledger
	energyRowSize = 2 + 8 // node | f64 bits
)

// NodeEnergy is one node's energy-ledger total in µJ, carried bit-exact.
type NodeEnergy struct {
	Node model.NodeID
	UJ   float64
}

// nodeRecord encodes a node record's payload — kind | epoch u32 | count
// u32 | (node u16, f64 bits)×count, rows ascending by node.
func nodeRecord(e model.Epoch, rows []NodeEnergy) []byte {
	dst := binary.LittleEndian.AppendUint32([]byte{recNodes}, uint32(e))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	for _, r := range rows {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Node))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.UJ))
	}
	return dst
}

// DecodeEnergies decodes a node record's payload after its kind byte,
// rejecting a count that disagrees with the length, nodes not strictly
// ascending and a total that is not a finite, non-negative µJ count.
func DecodeEnergies(b []byte) (model.Epoch, []NodeEnergy, error) {
	if len(b) < 8 || uint64(len(b)-8) != uint64(binary.LittleEndian.Uint32(b[4:]))*energyRowSize {
		return 0, nil, fmt.Errorf("storage: node record of %d bytes does not match its count", len(b))
	}
	rows := make([]NodeEnergy, 0, (len(b)-8)/energyRowSize)
	for off := 8; off < len(b); off += energyRowSize {
		r := NodeEnergy{model.NodeID(binary.LittleEndian.Uint16(b[off:])), math.Float64frombits(binary.LittleEndian.Uint64(b[off+2:]))}
		if len(rows) > 0 && r.Node <= rows[len(rows)-1].Node {
			return 0, nil, fmt.Errorf("storage: node record node %d not ascending", r.Node)
		}
		if !(r.UJ >= 0) || math.IsInf(r.UJ, 1) {
			return 0, nil, fmt.Errorf("storage: node record node %d total %v is not a µJ count", r.Node, r.UJ)
		}
		rows = append(rows, r)
	}
	return model.Epoch(binary.LittleEndian.Uint32(b)), rows, nil
}

// epochOf reads a validated epoch record's epoch.
func epochOf(rec []byte) model.Epoch { return model.Epoch(binary.LittleEndian.Uint32(rec[1:])) }

// appendNodeRecord frames the node record that closes an image.
func appendNodeRecord(img []byte, cursor model.Epoch, rows []NodeEnergy) []byte {
	return appendLogRecord(img, nodeRecord(cursor, rows))
}

// image is a decoded snapshot image; its records alias the image.
type image struct {
	records [][]byte
	cursor  model.Epoch
	nodes   []NodeEnergy
}

// decodeImage validates a snapshot image against every rule of its form.
func decodeImage(img []byte) (image, error) {
	var im image
	var newest model.Epoch
	sawNodes := false
	clean, err := replayLog(img, func(p []byte) error {
		if sawNodes {
			return fmt.Errorf("storage: a record follows the node record")
		}
		if len(p) > 0 && p[0] == recNodes {
			var err error
			im.cursor, im.nodes, err = DecodeEnergies(p[1:])
			sawNodes = true
			return err
		}
		e, _, err := decodeBatch(p)
		if err == nil && len(im.records) > 0 && e <= newest {
			err = fmt.Errorf("storage: epoch %d record not after epoch %d", e, newest)
		}
		im.records, newest = append(im.records, p), e
		return err
	})
	switch {
	case err != nil:
		return image{}, fmt.Errorf("storage: snapshot image: %w", err)
	case clean != len(img):
		return image{}, fmt.Errorf("storage: snapshot image torn or corrupt at byte %d of %d", clean, len(img))
	case !sawNodes:
		return image{}, fmt.Errorf("storage: snapshot image has no node record")
	case im.cursor != newest:
		return image{}, fmt.Errorf("storage: snapshot image cursor %d, newest record epoch %d", im.cursor, newest)
	}
	for _, rec := range im.records {
		j := 0 // node record position; both ascend
		for entries := rec[batchHeaderSize:]; len(entries) > 0; entries = entries[batchEntrySize:] {
			n, _ := batchEntry(entries)
			for j < len(im.nodes) && im.nodes[j].Node < n {
				j++
			}
			if j == len(im.nodes) || im.nodes[j].Node != n {
				return image{}, fmt.Errorf("storage: snapshot image epoch %d node %d is not in the node record", epochOf(rec), n)
			}
		}
	}
	return im, nil
}

// FilterImage returns the part of a snapshot image covering the kept nodes
// — how re-sharding cuts a source shard's image to a target roster — and
// how many nodes it kept. Every epoch record stays, emptied of the other
// nodes' entries, so the part keeps the source's cursor.
func FilterImage(img []byte, keep map[model.NodeID]bool) ([]byte, int, error) {
	im, err := decodeImage(img)
	if err != nil {
		return nil, 0, err
	}
	out, rec := appendLogHeader(nil), []byte(nil)
	for _, src := range im.records {
		rec = beginBatch(rec[:0], epochOf(src))
		for entries := src[batchHeaderSize:]; len(entries) > 0; entries = entries[batchEntrySize:] {
			if n, _ := batchEntry(entries); keep[n] {
				rec = append(rec, entries[:batchEntrySize]...)
			}
		}
		out = appendLogRecord(out, endBatch(rec))
	}
	var rows []NodeEnergy
	for _, r := range im.nodes {
		if keep[r.Node] {
			rows = append(rows, r)
		}
	}
	return appendNodeRecord(out, im.cursor, rows), len(rows), nil
}
