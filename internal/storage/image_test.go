package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kspot/internal/model"
)

// imageOf builds a snapshot image from epoch-record payloads and a node
// record, without checking that they form a valid one.
func imageOf(cursor model.Epoch, nodes []NodeEnergy, records ...[]byte) []byte {
	return appendNodeRecord(logImage(records...), cursor, nodes)
}

// threeNodes records epochs 0..4 of nodes 4, 7 and 9 into a memory store.
func threeNodes(t *testing.T) *Store {
	t.Helper()
	src, err := OpenStore("", 8)
	if err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(0); e < 5; e++ {
		src.RecordReadings(e, map[model.NodeID]model.Reading{
			4: {Node: 4, Epoch: e, Value: model.Value(e) + 0.25},
			7: {Node: 7, Epoch: e, Value: -model.Value(e)},
			9: {Node: 9, Epoch: e, Value: 100},
		})
	}
	return src
}

// TestShardStateRoundTripAndRestore: a shard's state image — Image, then
// Restore into a fresh disk store — comes back as the identical bytes, a
// reopen included, and FilterImage keeps every epoch record (so the
// cursor), exactly the kept nodes and their energies: the invariants
// migration relies on.
func TestShardStateRoundTripAndRestore(t *testing.T) {
	src := threeNodes(t)
	ledger := func(nodes []model.NodeID) []float64 {
		uj := make([]float64, len(nodes))
		for i, n := range nodes {
			uj[i] = float64(n) * 1.5
		}
		return uj
	}
	enc := src.Image(ledger)
	// Nodes 4, 7 and 9 are three runs, a node set of 7 bytes (the run
	// count, then gaps 4, 1 and 0, each with len−1 0). An epoch record is
	// its frame (8), kind and epoch (5), the node set, its base — the least
	// value, −100·e centi-units, zig-zag in 1 byte at epoch 0 and 2 after —
	// a width byte and 3 offsets of 2 bytes (the span, 10 000 + 100·e,
	// needs 2). The node record is its frame, kind, epoch, node set and 3
	// f64 totals.
	if want := logHeaderSize + 5*(8+5+7+1+3*2) + (1 + 4*2) + (8 + 5 + 7 + 3*8); len(enc) != want {
		t.Fatalf("image of %d bytes, want %d", len(enc), want)
	}
	im, err := decodeImage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(im.records) != 5 || im.cursor != 4 || fmt.Sprint(im.nodes) != "[{4 6} {7 10.5} {9 13.5}]" {
		t.Fatalf("image: %d records, cursor %d, nodes %v", len(im.records), im.cursor, im.nodes)
	}

	dir := filepath.Join(t.TempDir(), "restore")
	dst, err := OpenStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dst.Restore(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows) != fmt.Sprint(im.nodes) {
		t.Fatalf("restore returned %v, want the node record %v", rows, im.nodes)
	}
	if back := dst.Image(ledger); !bytes.Equal(back, enc) {
		t.Fatalf("restored image drifted:\n%x\n%x", back, enc)
	}
	// The rewritten log is the restored records: a reopen recovers the
	// same bytes.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if back := re.Image(ledger); !bytes.Equal(back, enc) {
		t.Fatalf("restored image did not survive a reopen:\n%x\n%x", back, enc)
	}

	// Splitting by node keeps every epoch, the cursor and exactly the kept
	// nodes; keeping none still keeps the cursor.
	for _, tc := range []struct {
		keep  map[model.NodeID]bool
		nodes string
	}{
		{map[model.NodeID]bool{7: true}, "[{7 10.5}]"},
		{map[model.NodeID]bool{42: true}, "[]"},
	} {
		part, kept, err := FilterImage(enc, tc.keep)
		if err != nil {
			t.Fatal(err)
		}
		got, series := transpose(t, part)
		if kept != len(got.nodes) || fmt.Sprint(got.nodes) != tc.nodes || got.cursor != im.cursor || len(got.records) != len(im.records) {
			t.Fatalf("filtered to %v: kept %d, nodes %v, cursor %d, %d records", tc.keep, kept, got.nodes, got.cursor, len(got.records))
		}
		if s := series[7]; kept == 1 && fmt.Sprint(s.Epochs, s.Values) != "[0 1 2 3 4] [0 -100 -200 -300 -400]" {
			t.Fatalf("node 7 filtered to %v %v", s.Epochs, s.Values)
		}
	}
}

// TestRestoreOverlays: an image node's entries replace that node's entries,
// the other nodes' stay, the last capacity epochs are kept and the cursor
// does not regress.
func TestRestoreOverlays(t *testing.T) {
	part, _, err := FilterImage(threeNodes(t).Image(zeroLedger), map[model.NodeID]bool{7: true})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := OpenStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(3); e < 7; e++ {
		dst.RecordReadings(e, map[model.NodeID]model.Reading{5: {Value: 50}, 7: {Value: 70}})
	}
	if _, err := dst.Restore(part); err != nil {
		t.Fatal(err)
	}
	got, series := transpose(t, dst.Image(zeroLedger))
	if got.cursor != 6 || len(got.records) != 4 {
		t.Fatalf("overlaid store: cursor %d, %d records", got.cursor, len(got.records))
	}
	if s := series[5]; fmt.Sprint(s.Epochs, s.Values) != "[3 4 5 6] [5000 5000 5000 5000]" {
		t.Fatalf("untouched node 5 holds %v %v", s.Epochs, s.Values)
	}
	if s := series[7]; fmt.Sprint(s.Epochs, s.Values) != "[3 4] [-300 -400]" {
		t.Fatalf("restored node 7 holds %v %v", s.Epochs, s.Values)
	}
}

// TestShardStateDecodeRejects table-tests the rules of a snapshot image's
// canonical form.
func TestShardStateDecodeRejects(t *testing.T) {
	nodes := []NodeEnergy{{Node: 1, UJ: 2.5}, {Node: 2}}
	r1, r2 := batch(1, 1, 10), batch(2, 1, 20, 2, 30)
	good := imageOf(2, nodes, r1, r2)
	if _, err := decodeImage(good); err != nil {
		t.Fatalf("the good image is refused: %v", err)
	}
	cases := []struct {
		name string
		img  []byte
	}{
		{"bad magic", append([]byte("KSST"), good[4:]...)},
		{"bad flag", imageOf(2, nodes, r1, append([]byte{9}, r2[1:]...))},
		{"trailing", append(bytes.Clone(good), 0)},
		{"truncated", good[:len(good)-3]},
		{"empty", nil},
		{"epoch order", imageOf(2, nodes, r2, batch(2, 1, 10))},
		{"node order", imageOf(2, []NodeEnergy{{Node: 2}, {Node: 1}}, r1, r2)},
		{"energy not a count", imageOf(2, []NodeEnergy{{Node: 1, UJ: math.NaN()}, {Node: 2}}, r1, r2)},
		{"cursor without flag", imageOf(3, nodes)},
		{"cursor not the newest epoch", imageOf(1, nodes, r1, r2)},
		{"node record missing", logImage(r1, r2)},
		{"node record not last", appendLogRecord(imageOf(1, nodes, r1), r2)},
		{"node record repeated", appendNodeRecord(good, 2, nodes)},
		{"record node not in node record", imageOf(2, nodes[:1], r1, r2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeImage(tc.img); err == nil {
				t.Fatal("accepted")
			} else if !strings.HasPrefix(err.Error(), "storage: ") {
				t.Fatalf("error %q lost its package path", err)
			}
		})
	}
}

// TestRestoreRefusesTornOrCorruptImage: a 3-node, 4-epoch image cut at
// every byte boundary, or with one byte flipped inside any record, is
// refused by Restore — in memory and on disk — and the store's image and
// log stay as they were.
func TestRestoreRefusesTornOrCorruptImage(t *testing.T) {
	src, err := OpenStore("", 8)
	if err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(0); e < 4; e++ {
		src.RecordReadings(e, readings(e, 3))
	}
	img := src.Image(zeroLedger)
	var bad [][]byte
	for cut := 0; cut < len(img); cut++ {
		bad = append(bad, img[:cut])
	}
	records := 0
	for off := logHeaderSize; off < len(img); off += logFrameSize + int(binary.LittleEndian.Uint32(img[off:])) {
		b := bytes.Clone(img)
		b[off+4+int(binary.LittleEndian.Uint32(img[off:]))/2] ^= 0xFF
		bad, records = append(bad, b), records+1
	}
	if records != 5 {
		t.Fatalf("image holds %d records, want 4 epochs and the node record", records)
	}
	for _, dir := range []string{"", t.TempDir()} {
		dst, err := OpenStore(dir, 8)
		if err != nil {
			t.Fatal(err)
		}
		for e := model.Epoch(10); e < 13; e++ {
			dst.RecordReadings(e, readings(e, 2))
		}
		logBytes := func() []byte {
			if dir == "" {
				return nil
			}
			raw, err := os.ReadFile(filepath.Join(dir, logName))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		wantImage, wantLog := imageBytes(dst), logBytes()
		for i, b := range bad {
			if _, err := dst.Restore(b); err == nil {
				t.Fatalf("dir %q: bad image %d (%d of %d bytes) restored", dir, i, len(b), len(img))
			}
			if imageBytes(dst) != wantImage || !bytes.Equal(logBytes(), wantLog) {
				t.Fatalf("dir %q: bad image %d changed the store", dir, i)
			}
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
