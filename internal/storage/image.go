package storage

// A snapshot image — what wire.MsgSnapshot streams out and wire.MsgRestore
// streams in — is a log image (log.go) of the store's own records: the
// ring's epoch records oldest first, byte for byte, then exactly one node
// record (record.go), every roster node with its energy-ledger total. Its
// epoch is the cursor, and it is the record a served shard appends to its
// shard.log after each epoch round (Store.RecordEnergies). The image is
// canonical, and decodeImage enforces it: the log's clean prefix is the
// whole image (a torn tail is a crash for a file on disk, but an error for
// an image), every epoch record is valid with epochs strictly ascending,
// the node record comes last and once and names every node a record
// carries, and its epoch is the newest record's (0 with no records).

import (
	"fmt"

	"kspot/internal/model"
)

// NodeEnergy is one node's energy-ledger total in µJ, carried bit-exact.
type NodeEnergy struct {
	Node model.NodeID
	UJ   float64
}

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
	var sets []nodeSet // each record's, for the membership check
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
		r, err := decodeEpochRecord(p)
		if err == nil && len(im.records) > 0 && r.epoch <= newest {
			err = fmt.Errorf("storage: epoch %d record not after epoch %d", r.epoch, newest)
		}
		im.records, sets, newest = append(im.records, p), append(sets, r.set), r.epoch
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
	for k, set := range sets {
		j := 0 // node record position; both ascend
		for id := range set.ids {
			for j < len(im.nodes) && im.nodes[j].Node < id {
				j++
			}
			if j == len(im.nodes) || im.nodes[j].Node != id {
				return image{}, fmt.Errorf("storage: snapshot image epoch %d node %d is not in the node record", epochOf(im.records[k]), id)
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
		nodes, vals := readingsOf(src)
		kept := 0
		for i, n := range nodes {
			if keep[n] {
				nodes[kept], vals[kept] = n, vals[i]
				kept++
			}
		}
		rec = appendEpochRecord(rec[:0], epochOf(src), nodes[:kept], vals[:kept])
		out = appendLogRecord(out, rec)
	}
	var rows []NodeEnergy
	for _, r := range im.nodes {
		if keep[r.Node] {
			rows = append(rows, r)
		}
	}
	return appendNodeRecord(out, im.cursor, rows), len(rows), nil
}
