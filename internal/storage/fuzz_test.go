package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"kspot/internal/model"
)

// FuzzSegmentDecode drives arbitrary bytes through the durable tier's
// codecs — the log's header and record framing with its torn-tail replay,
// the epoch-record and node-record payloads behind it, the store's
// recovery over them, and the snapshot image decoder. The
// invariants are the same ones the wire frames carry: no input panics or
// over-allocates, anything that decodes re-encodes to the identical bytes
// (one canonical form per log prefix, per record and per image, and an
// image restores and re-images to itself), non-canonical records (a
// non-minimal varint, a node beyond 65 535, a width above 8 or wider than
// the span needs, a least offset other than 0, trailing bytes) never
// decode, and the replayed clean prefix is itself a valid log. The
// committed corpus holds logs of the earlier fixed-entry form (format
// version 1), which must be refused whole.
func FuzzSegmentDecode(f *testing.F) {
	f.Add(logImage(batch(7, 1, 4225)))
	f.Add(logImage(batch(1, 1, -350, 2, 0), batch(2, 2, 17)))
	f.Add(logImage(batch(1, 1, -350, 2, 0), nodeRecord(1, []NodeEnergy{{Node: 1, UJ: 40.5}, {Node: 3}})))
	f.Add(imageOf(3, []NodeEnergy{{Node: 4, UJ: 123.5}, {Node: 7}}, batch(1, 4, 100), batch(3, 4, -200, 7, 5)))
	f.Add(imageOf(0, nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(batch(5, 3, 1, 9, 2, 300, 3))
	f.Add(batch(5, 9, 1, 3, 2))                                                 // unsorted nodes
	f.Add(append(logImage(batch(0)), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0))       // oversize len
	f.Add(append([]byte("KSLG\x03\x00\x00\x00"), appendLogRecord(nil, nil)...)) // future version
	f.Add(logImage(batch(2, 1, 100, 2, 101, 3, 102, 6, 110, 7, 111, 10, 120)))  // holes left by churn
	f.Add(logImage(batch(3, 65534, math.MinInt64, 65535, math.MaxInt64)))       // width 8
	for _, reject := range recordRejects {
		f.Add(logImage(batch(1, 1, 5), reject.p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecord := func(p []byte) {
			if len(p) > 0 && p[0] == recNodes {
				if e, rows, err := DecodeEnergies(p[1:]); err == nil && !bytes.Equal(nodeRecord(e, rows), p) {
					t.Fatalf("node record re-encode mismatch: %x != %x", nodeRecord(e, rows), p)
				}
				return
			}
			r, err := decodeEpochRecord(p)
			if err != nil {
				return
			}
			nodes, vals := r.readings()
			for i := 1; i < len(nodes); i++ {
				if nodes[i] <= nodes[i-1] {
					t.Fatalf("record decoded with node %d after %d", nodes[i], nodes[i-1])
				}
			}
			if re := appendEpochRecord(nil, r.epoch, nodes, vals); !bytes.Equal(re, p) {
				t.Fatalf("record re-encode mismatch: %x != %x", re, p)
			}
		}
		checkRecord(data)
		re := appendLogHeader(nil)
		clean, err := replayLog(data, func(p []byte) error {
			checkRecord(p)
			re = appendLogRecord(re, p)
			return nil
		})
		if clean > len(data) || (err == nil && clean > 0 && !bytes.Equal(re, data[:clean])) {
			t.Fatalf("replay: clean %d of %d, re-encode %x != %x (%v)", clean, len(data), re, data[:min(clean, len(data))], err)
		}
		if again, err := replayLog(data[:clean], func([]byte) error { return nil }); err != nil || again != clean {
			t.Fatalf("clean prefix is not itself a valid log: %d of %d, %v", again, clean, err)
		}
		// Recovery keeps the last node record it accepted, re-encoded as it
		// was read.
		rec, _ := OpenStore("", 4)
		var lastNodes []byte
		replayLog(data, func(p []byte) error {
			err := rec.replay(p)
			if err == nil && p[0] == recNodes {
				lastNodes = p
			}
			return err
		})
		if lastNodes != nil && !bytes.Equal(nodeRecord(model.Epoch(binary.LittleEndian.Uint32(lastNodes[1:])), rec.Energies()), lastNodes) {
			t.Fatalf("kept ledger %v, last node record %x", rec.Energies(), lastNodes)
		}
		if im, err := decodeImage(data); err == nil {
			if re := imageOf(im.cursor, im.nodes, im.records...); !bytes.Equal(re, data) {
				t.Fatalf("image re-encode mismatch: %x != %x", re, data)
			}
			// restore∘image is the identity on whatever decodes as an image.
			st, _ := OpenStore("", max(1, len(im.records)))
			if _, err := st.Restore(data); err != nil {
				t.Fatalf("a decoded image does not restore: %v", err)
			}
			ledger := func(nodes []model.NodeID) []float64 {
				uj := make([]float64, len(nodes))
				for i := range nodes {
					uj[i] = im.nodes[i].UJ
				}
				return uj
			}
			if re := st.Image(ledger); !bytes.Equal(re, data) {
				t.Fatalf("restored image %x, want %x", re, data)
			}
		}
	})
}
