package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kspot/internal/model"
)

// TestWindowErrorPaths table-tests the validation errors of the history
// windows: every rejected construction or record carries a field-path-style
// message (like scenario Validate's), so a wrapped error names exactly
// what was out of range.
func TestWindowErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
		want string
	}{
		{"capacity zero", func() error { _, err := BufferSeries(nil, 0, nil); return err },
			"storage: history window: must be >= 1, got 0"},
		{"capacity negative", func() error { _, err := BufferSeries(nil, -3, nil); return err },
			"storage: history window: must be >= 1, got -3"},
		{"push regression", func() error {
			st, _ := OpenStore("", 2)
			st.replay(batch(5, 1, 1))
			return st.replay(batch(5, 1, 2))
		}, "storage: epoch 5 record not after epoch 5"},
		{"restore past cursor", func() error {
			st, _ := OpenStore("", 2)
			_, err := st.Restore(appendNodeRecord(logImage(batch(4, 1, 1), batch(5, 1, 2)), 4, []NodeEnergy{{Node: 1}}))
			return err
		}, "storage: snapshot image cursor 4, newest record epoch 5"},
		{"store capacity", func() error { _, err := OpenStore("", 0); return err },
			"storage: store.capacity: must be >= 1, got 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatalf("accepted, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// batch builds one epoch-record payload from node, value pairs.
func batch(e model.Epoch, entries ...int64) []byte {
	var nodes []model.NodeID
	var vals []int64
	for i := 0; i+1 < len(entries); i += 2 {
		nodes, vals = append(nodes, model.NodeID(entries[i])), append(vals, entries[i+1])
	}
	return appendEpochRecord(nil, e, nodes, vals)
}

// readingsSize is the framed size of the epoch record of readings(e, n),
// by the form's arithmetic: the frame, kind and epoch, one run (the run
// count, gap 1 and len−1), the base (e·1000 + 25 centi-units, zig-zag),
// the width byte and n offsets of the fewest bytes that hold 25·(n−1).
func readingsSize(e model.Epoch, n int) int {
	width := (bits.Len64(uint64(25*(n-1))) + 7) / 8
	return logFrameSize + 5 + 1 + 1 + len(binary.AppendUvarint(nil, uint64(n-1))) +
		len(binary.AppendVarint(nil, int64(e)*1000+25)) + 1 + n*width
}

// readingsBytes sums readingsSize over epochs [from, to).
func readingsBytes(from, to model.Epoch, n int) int {
	total := 0
	for e := from; e < to; e++ {
		total += readingsSize(e, n)
	}
	return total
}

// nodeRecordSize is the framed size of a node record of nodes 1..n: the
// frame, kind and epoch, one run and 8 bytes a total.
func nodeRecordSize(n int) int {
	return logFrameSize + 5 + 1 + 1 + len(binary.AppendUvarint(nil, uint64(n-1))) + 8*n
}

// logImage frames payloads into a whole log file image.
func logImage(payloads ...[]byte) []byte {
	img := appendLogHeader(nil)
	for _, p := range payloads {
		img = appendLogRecord(img, p)
	}
	return img
}

// replayAll collects a log image's clean payloads.
func replayAll(img []byte) (payloads [][]byte, clean int, err error) {
	clean, err = replayLog(img, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	return payloads, clean, err
}

// readings builds one epoch's readings for nodes 1..n.
func readings(e model.Epoch, n int) map[model.NodeID]model.Reading {
	m := make(map[model.NodeID]model.Reading, n)
	for id := model.NodeID(1); id <= model.NodeID(n); id++ {
		m[id] = model.Reading{Node: id, Epoch: e, Value: model.Value(e)*10 + model.Value(id)*0.25}
	}
	return m
}

// zeroLedger reads every node's energy as 0.
func zeroLedger(nodes []model.NodeID) []float64 { return make([]float64, len(nodes)) }

// imageBytes is the store's snapshot image under a zero ledger.
func imageBytes(s *Store) string { return string(s.Image(zeroLedger)) }

// recorded is one node's readings in an image, oldest first.
type recorded struct {
	Epochs []model.Epoch
	Values []int64
}

// transpose decodes an image and reads each node-record node's readings
// out of its epoch records — the per-node view these tests assert on; the
// store keeps no such form.
func transpose(t testing.TB, img []byte) (image, map[model.NodeID]*recorded) {
	t.Helper()
	im, err := decodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[model.NodeID]*recorded, len(im.nodes))
	for _, r := range im.nodes {
		series[r.Node] = &recorded{}
	}
	for _, rec := range im.records {
		nodes, vals := readingsOf(rec)
		for i, n := range nodes {
			series[n].Epochs = append(series[n].Epochs, epochOf(rec))
			series[n].Values = append(series[n].Values, vals[i])
		}
	}
	return im, series
}

// TestLogAndBatchDecodeRejects table-tests the canonical-form guards of the
// log header and the epoch-record payload.
func TestLogAndBatchDecodeRejects(t *testing.T) {
	good := batch(3, 1, 10, 2, 20)
	batches := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"short header", good[:recHeaderSize-1]},
		{"unknown kind", append([]byte{9}, good[1:]...)},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(bytes.Clone(good), 0)},
		{"duplicate node", batch(3, 2, 10, 2, 20)},
		{"unsorted nodes", batch(3, 2, 10, 1, 20)},
	}
	batches = append(batches, recordRejects...)
	for _, tc := range batches {
		if _, err := decodeEpochRecord(tc.p); err == nil {
			t.Errorf("batch %s: accepted %x", tc.name, tc.p)
		} else if !strings.HasPrefix(err.Error(), "storage: ") {
			t.Errorf("batch %s: error %q lost its package path", tc.name, err)
		}
	}
	img := logImage(good)
	logs := []struct {
		name string
		img  []byte
	}{
		{"bad magic", append([]byte("KSXX"), img[4:]...)},
		{"bad version", func() []byte { b := bytes.Clone(img); b[4] = 3; return b }()},
		{"foreign short file", []byte("hi")},
	}
	for _, tc := range logs {
		if _, clean, err := replayAll(tc.img); err == nil {
			t.Errorf("log %s: accepted (clean %d)", tc.name, clean)
		}
		// Through the file path a foreign file is refused and left alone,
		// never truncated to nothing.
		path := filepath.Join(t.TempDir(), "foreign.log")
		if err := os.WriteFile(path, tc.img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLog(path, func([]byte) error { return nil }); err == nil {
			t.Errorf("log %s: OpenLog accepted", tc.name)
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, tc.img) {
			t.Errorf("log %s: refused file was modified", tc.name)
		}
	}
	// An oversize length prefix is a torn tail, not a record to allocate.
	over := append(logImage(good), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	if got, clean, err := replayAll(over); err != nil || len(got) != 1 || clean != len(over)-8 {
		t.Errorf("oversize len: %d records, clean %d of %d, %v", len(got), clean, len(over), err)
	}
	// A CRC-clean record the payload decoder rejects fails the open.
	path := filepath.Join(t.TempDir(), logName)
	if err := os.WriteFile(path, logImage(good, batch(4, 2, 1, 1, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(filepath.Dir(path), 4); err == nil || !strings.Contains(err.Error(), "beyond 65535") {
		t.Errorf("store opened on a non-canonical record: %v", err)
	}
}

// tornTailInputs are the three-record logs the torn-tail and corruption
// tests run over: epoch records as the store writes them, a
// served shard's epoch and node records with a node record torn last, and
// variable-size opaque payloads (a 9-byte one, a long one, an empty one).
var tornTailInputs = []struct {
	name     string
	payloads [3][]byte
}{
	{"epoch batches", [3][]byte{batch(1, 1, 100, 2, 110), batch(2, 1, 200, 2, 210), batch(3, 1, 300, 2, 310)}},
	{"node record last", [3][]byte{batch(1, 1, 100, 2, 110), nodeRecord(1, []NodeEnergy{{1, 12.5}, {2, 3}}), nodeRecord(2, []NodeEnergy{{1, 14}, {2, 4.25}, {3, 0}})}},
	{"variable-size payloads", [3][]byte{{1, 1, 2, 3, 4, 5, 6, 7, 8}, bytes.Repeat([]byte("SELECT "), 40), {}}},
	{"long last record", [3][]byte{{4, 1, 0, 0, 0}, {4, 2, 0, 0, 0}, bytes.Repeat([]byte{0xAB}, 300)}},
}

// TestSegmentTornTailEveryBoundary truncates a three-record log at every
// byte boundary of its final record and asserts recovery keeps the first
// two records intact — exactly the torn record is dropped, never more.
func TestSegmentTornTailEveryBoundary(t *testing.T) {
	for _, in := range tornTailInputs {
		t.Run(in.name, func(t *testing.T) {
			full := logImage(in.payloads[:]...)
			keep := len(logImage(in.payloads[:2]...))
			for cut := keep; cut < len(full); cut++ {
				got, clean, err := replayAll(full[:cut])
				if err != nil || clean != keep {
					t.Fatalf("cut %d: clean prefix %d, want %d (%v)", cut, clean, keep, err)
				}
				if len(got) != 2 || !bytes.Equal(got[0], in.payloads[0]) || !bytes.Equal(got[1], in.payloads[1]) {
					t.Fatalf("cut %d: recovered %x", cut, got)
				}
			}
			// And through the real file path: OpenLog must truncate the torn
			// tail on disk and keep appending after the clean prefix.
			replacement := []byte("replacement third record")
			for cut := keep; cut < len(full); cut++ {
				path := filepath.Join(t.TempDir(), "torn.log")
				if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				recovered := 0
				l, err := OpenLog(path, func([]byte) error { recovered++; return nil })
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if recovered != 2 || l.Size() != int64(keep) {
					t.Fatalf("cut %d: recovered %d records, size %d", cut, recovered, l.Size())
				}
				l.Append(replacement)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				raw, _ := os.ReadFile(path)
				got, clean, err := replayAll(raw)
				if err != nil || clean != len(raw) || len(got) != 3 || !bytes.Equal(got[2], replacement) {
					t.Fatalf("cut %d: post-append log %x (clean %d of %d, %v)", cut, got, clean, len(raw), err)
				}
			}
		})
	}
	// A header torn while it was being written is an empty log, not a
	// foreign file.
	for cut := 0; cut < logHeaderSize; cut++ {
		if got, clean, err := replayAll(logImage()[:cut]); err != nil || clean != 0 || len(got) != 0 {
			t.Fatalf("header cut %d: %d records, clean %d, %v", cut, len(got), clean, err)
		}
	}
}

// TestSegmentMidFileCorruption: a flipped byte in the middle of a log
// ends the clean prefix there — recovery keeps everything before it.
func TestSegmentMidFileCorruption(t *testing.T) {
	for _, in := range tornTailInputs {
		first := len(logImage(in.payloads[0]))
		img := logImage(append(in.payloads[:], []byte("fourth"))...)
		img[first+6] ^= 0xFF // inside record 2's payload (or its CRC)
		got, clean, err := replayAll(img)
		if err != nil || clean != first || len(got) != 1 || !bytes.Equal(got[0], in.payloads[0]) {
			t.Fatalf("%s: recovered %x (clean %d, %v)", in.name, got, clean, err)
		}
	}
}

// TestLogRewriteIsAtomic: Rewrite leaves the old contents in place until
// the replacement is complete, supersedes appends pending from before it,
// and leaves no temp file behind.
func TestLogRewriteIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.log")
	l, err := OpenLog(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("old-1"))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("pending, superseded"))
	err = l.Rewrite(func() {
		// Mid-rewrite the file under the log's name is still the old one.
		raw, _ := os.ReadFile(path)
		if got, _, _ := replayAll(raw); len(got) != 1 || string(got[0]) != "old-1" {
			t.Errorf("mid-rewrite contents %q", got)
		}
		l.Append([]byte("new-1"))
		l.Append([]byte("new-2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("new-3"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	got, clean, err := replayAll(raw)
	if err != nil || clean != len(raw) || int64(clean) != l.Size() || len(got) != 3 || string(got[0]) != "new-1" || string(got[2]) != "new-3" {
		t.Fatalf("rewritten log %q (clean %d of %d, size %d, %v)", got, clean, len(raw), l.Size(), err)
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Fatalf("rewrite left %d files behind", len(ents))
	}
}

// TestStoreDiskRecovery: epochs recorded through a disk-backed store
// recover byte-identically — same series, same epochs, evictions included
// — from the shard log, and continue accepting epochs.
func TestStoreDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(1); e <= 5; e++ {
		st.RecordReadings(e, readings(e, 2))
	}
	want := imageBytes(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := imageBytes(re); got != want {
		t.Fatalf("recovered state %x, want %x", got, want)
	}
	node2 := func() *recorded { _, series := transpose(t, re.Image(zeroLedger)); return series[2] }
	if w := node2(); fmt.Sprint(w.Epochs) != "[3 4 5]" || fmt.Sprint(w.Values) != "[3050 4050 5050]" {
		t.Fatalf("recovered node 2 window %v@%v", w.Values, w.Epochs)
	}
	re.RecordReadings(6, readings(6, 2))
	if w := node2(); w.Epochs[len(w.Epochs)-1] != 6 || re.err != nil {
		t.Fatalf("post-recovery push: epochs %v, err %v", w.Epochs, re.err)
	}
}

// TestStoreSnapshotCarriesTheLastEpochs: an image holds the shard's last
// capacity epochs, not each node's last capacity readings — a node silent
// for longer keeps its roster seat and its energy but carries no readings.
// The image is the same from a memory store, from a reopened disk store,
// and from a disk store restored from it. A restored log holds only the
// image's records, so reopening it seats only the nodes they carry: the
// silent node's seat is not on disk until it reports again.
func TestStoreSnapshotCarriesTheLastEpochs(t *testing.T) {
	const capacity = 4
	ledger := func(nodes []model.NodeID) []float64 {
		uj := make([]float64, len(nodes))
		for i, n := range nodes {
			uj[i] = float64(n) * 2.5
		}
		return uj
	}
	record := func(st *Store) {
		for e := model.Epoch(0); e < 10; e++ {
			m := readings(e, 3)
			if e > 2 {
				delete(m, 3)
			}
			st.RecordReadings(e, m)
		}
	}
	image := func(st *Store) string { return string(st.Image(ledger)) }

	mem, err := OpenStore("", capacity)
	if err != nil {
		t.Fatal(err)
	}
	record(mem)
	want := image(mem)
	got, series := transpose(t, []byte(want))
	if got.cursor != 9 || len(got.records) != capacity || len(got.nodes) != 3 {
		t.Fatalf("image cursor %d with %d records and %d nodes", got.cursor, len(got.records), len(got.nodes))
	}
	for _, r := range got.nodes {
		if r.UJ != float64(r.Node)*2.5 {
			t.Fatalf("node %d carries energy %v", r.Node, r.UJ)
		}
	}
	for _, n := range []model.NodeID{1, 2} {
		if fmt.Sprint(series[n].Epochs) != "[6 7 8 9]" {
			t.Fatalf("node %d carries epochs %v", n, series[n].Epochs)
		}
	}
	if silent := series[3]; len(silent.Epochs) != 0 {
		t.Fatalf("silent node in the image: %+v", silent)
	}

	reopen := func(dir string) *Store {
		t.Helper()
		st, err := OpenStore(dir, capacity)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	dir := t.TempDir()
	disk := reopen(dir)
	record(disk)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	disk = reopen(dir)
	defer disk.Close()
	if image(disk) != want {
		t.Fatal("a reopened disk store's image differs from the memory store's")
	}

	restoredDir := t.TempDir()
	restored := reopen(restoredDir)
	rows, err := restored.Restore([]byte(want))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows) != fmt.Sprint(got.nodes) {
		t.Fatalf("restore returned energies %v, want the node record's %v", rows, got.nodes)
	}
	if image(restored) != want {
		t.Fatal("a restored store's image differs from the source's")
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	restored = reopen(restoredDir)
	defer restored.Close()
	reporting, _, err := FilterImage([]byte(want), map[model.NodeID]bool{1: true, 2: true})
	if err != nil {
		t.Fatal(err)
	}
	if image(restored) != string(reporting) {
		t.Fatalf("a restored and reopened store's image %x, want %x", image(restored), reporting)
	}
}

// TestStoreRecordRecoverStats drives the store through record → reopen →
// record and checks idempotent replay, cursor recovery and the stats
// block.
func TestStoreRecordRecoverStats(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(0); e < 3; e++ {
		st.RecordReadings(e, readings(e, 2))
	}
	if err := st.err; err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Nodes != 2 || stats.Segments != 1 || !stats.HasEpoch || stats.LastEpoch != 2 || stats.Bytes != int64(logHeaderSize+readingsBytes(0, 3, 2)) || stats.Err != "" {
		t.Fatalf("stats %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != stats.Bytes {
		t.Fatalf("log on disk %v bytes (%v), stats said %d", fi.Size(), err, stats.Bytes)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("data dir holds %d files, want the one log", len(ents))
	}

	re, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e, ok := re.Cursor(); !ok || e != 2 {
		t.Fatalf("recovered cursor %d,%v", e, ok)
	}
	// The coordinator replays epoch 2 at the restarted shard: idempotent.
	re.RecordReadings(2, readings(2, 2))
	re.RecordReadings(3, readings(3, 2))
	if err := re.err; err != nil {
		t.Fatal(err)
	}
	if got, want := re.Stats().Bytes, int64(logHeaderSize+readingsBytes(0, 4, 2)); got != want {
		t.Fatalf("bytes after replay %d, want %d (epoch 2 must not re-append)", got, want)
	}
	// Memory mode: same API, no files.
	mem, err := OpenStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	mem.RecordReadings(0, readings(0, 2))
	if s := mem.Stats(); s.Segments != 0 || s.Nodes != 2 || s.Bytes != 0 {
		t.Fatalf("memory stats %+v", s)
	}
}

// TestStoreTornEpochEveryBoundary: an epoch is one CRC'd record, so a
// crash mid-write leaves it recorded for every node or for none. After N
// epochs the log is cut at every byte of the final record; the reopened
// store holds exactly N−1 epochs for every node with the cursor on the
// last whole one, and the coordinator's retry of epoch N−1 restores the
// uncrashed store's state byte for byte.
func TestStoreTornEpochEveryBoundary(t *testing.T) {
	const n, nodes = 4, 5
	dir := t.TempDir()
	st, err := OpenStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(0); e < n; e++ {
		st.RecordReadings(e, readings(e, nodes))
	}
	want := imageBytes(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	last := readingsSize(n-1, nodes)
	for cut := len(full) - last; cut < len(full); cut++ {
		crashed := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashed, logName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenStore(crashed, 8)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if e, ok := re.Cursor(); !ok || e != n-2 {
			t.Fatalf("cut %d: cursor %d,%v, want %d", cut, e, ok, n-2)
		}
		_, recovered := transpose(t, re.Image(zeroLedger))
		for node, ns := range recovered {
			if len(ns.Epochs) != n-1 || ns.Epochs[len(ns.Epochs)-1] != n-2 {
				t.Fatalf("cut %d: node %d holds epochs %v", cut, node, ns.Epochs)
			}
		}
		if len(recovered) != nodes {
			t.Fatalf("cut %d: %d nodes recovered", cut, len(recovered))
		}
		re.RecordReadings(n-1, readings(n-1, nodes))
		if got := imageBytes(re); got != want || re.err != nil {
			t.Fatalf("cut %d: retried epoch did not restore the uncrashed state (%v)", cut, re.err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(filepath.Join(crashed, logName)); !bytes.Equal(raw, full) {
			t.Fatalf("cut %d: log after the retry differs from the uncrashed log", cut)
		}
	}
}

// countingWriter counts the writes that reach the log's file.
type countingWriter struct {
	w      io.Writer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// TestStoreRecordWritePath pins the per-epoch cost of a disk-backed
// scale-1000 store in steady state: O(1) allocations (no id slice, no
// sort — the store walks its own ascending roster) and exactly one file
// write.
func TestStoreRecordWritePath(t *testing.T) {
	const nodes = 1000
	st, err := OpenStore(t.TempDir(), DefaultStoreWindow)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cw := &countingWriter{w: st.log.f}
	st.log.w = cw
	m := readings(0, nodes)
	e := model.Epoch(0)
	record := func() {
		st.RecordReadings(e, m)
		e++
	}
	record() // seats the roster, sizes the scratch buffers
	record()
	cw.writes = 0
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, record); allocs > 0 {
		t.Fatalf("RecordReadings allocates %.0f per scale-%d epoch, want O(1)", allocs, nodes)
	}
	if cw.writes != runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d file writes for %d epochs, want one each", cw.writes, runs+1)
	}
	if err := st.err; err != nil {
		t.Fatal(err)
	}
	// Every epoch records readings(0, nodes), so every record is epoch 0's
	// size.
	if got, want := st.Stats().Bytes, int64(logHeaderSize+int(e)*readingsSize(0, nodes)); got != want {
		t.Fatalf("log holds %d bytes after %d epochs, want %d", got, e, want)
	}
}

// TestStoreFailedLogIsReported: a log that stops taking writes (a full
// disk) is not silent — the failure shows in the stats block — and
// never changes what the shard answers: the windows keep recording exactly
// as a memory-backed store's do.
func TestStoreFailedLogIsReported(t *testing.T) {
	disk, err := OpenStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	mem, _ := OpenStore("", 8)
	for e := model.Epoch(0); e < 5; e++ {
		if e == 2 {
			disk.log.f.Close() // the file fails under the running store
		}
		disk.RecordReadings(e, readings(e, 3))
		mem.RecordReadings(e, readings(e, 3))
		if failed := disk.Stats().Err != ""; failed != (e >= 2) {
			t.Fatalf("epoch %d: stats error %q", e, disk.Stats().Err)
		}
	}
	if err := disk.err; err == nil || !errors.Is(err, os.ErrClosed) || !strings.Contains(err.Error(), logName) {
		t.Fatalf("sticky error %v, want the failed write naming the log", err)
	}
	if imageBytes(disk) != imageBytes(mem) {
		t.Fatal("a failed log changed the store's in-memory state")
	}
	if got, want := disk.Stats().Bytes, int64(logHeaderSize+readingsBytes(0, 3, 3)); got != want {
		t.Fatalf("failed log reports %d bytes, want %d (no appends after the failure)", got, want)
	}
}

// TestOpenStoreRefusesLegacySegments: a data dir written by a build that
// kept one segment file per node is refused by name, not silently opened
// empty beside it.
func TestOpenStoreRefusesLegacySegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "node-7.seg"), []byte{13, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, 4); err == nil || !strings.Contains(err.Error(), "node-7.seg") {
		t.Fatalf("opened over legacy segments: %v", err)
	}
}

// TestStoreKeepsTheLastNodeRecord: a store that keeps the ledger appends a
// node record per call, and recovery keeps the last whole one — cut at any
// byte of the last, the one before — and seats every node it names, here
// node 3, which never sensed. A restore's rewrite ends with the ledger
// overlaid by the image's totals, so a crash right after it loses nothing.
// A local store writes no node record, and recovers none.
func TestStoreKeepsTheLastNodeRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	ledger := func(e model.Epoch) []NodeEnergy {
		return []NodeEnergy{{1, float64(e) * 1.5}, {2, float64(e) * 2.25}, {3, float64(e) / 3}}
	}
	for e := model.Epoch(0); e < 3; e++ {
		st.RecordReadings(e, readings(e, 2))
		st.RecordEnergies(ledger(e))
	}
	if s := st.Stats(); s.Nodes != 3 || s.Err != "" || s.Bytes != int64(logHeaderSize+readingsBytes(0, 3, 2)+3*nodeRecordSize(3)) {
		t.Fatalf("stats %+v", s)
	}
	st.Close()
	full, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(img []byte) *Store {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, logName), img, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenStore(d, 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { re.Close() })
		return re
	}
	last := len(full) - (logFrameSize + len(nodeRecord(2, ledger(2))))
	for cut := last; cut <= len(full); cut++ {
		want := ledger(1)
		if cut == len(full) {
			want = ledger(2)
		}
		re := reopen(full[:cut])
		if got := re.Energies(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d of %d: kept ledger %v, want %v", cut, len(full), got, want)
		}
		if s := re.Stats(); s.Nodes != 3 || !s.HasEpoch || s.LastEpoch != 2 {
			t.Fatalf("cut %d of %d: stats %+v", cut, len(full), s)
		}
	}

	// Restore brings node 4 and a new total for node 2; the rewritten log
	// recovers the overlay.
	re := reopen(full)
	img := imageOf(2, []NodeEnergy{{2, 99}, {4, 7.5}}, batch(2, 2, 5, 4, 6))
	if _, err := re.Restore(img); err != nil {
		t.Fatal(err)
	}
	re.Close()
	raw, _ := os.ReadFile(filepath.Join(re.dir, logName))
	again := reopen(raw)
	want := []NodeEnergy{{1, 3}, {2, 99}, {3, 2.0 / 3}, {4, 7.5}}
	if got := again.Energies(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ledger after restore and reopen %v, want %v", got, want)
	}
	if s := again.Stats(); s.Nodes != 4 {
		t.Fatalf("stats after restore and reopen %+v", s)
	}

	// A local store restores the same image and writes no node record.
	local, err := OpenStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	local.RecordReadings(1, readings(1, 2))
	if _, err := local.Restore(img); err != nil {
		t.Fatal(err)
	}
	local.Close()
	raw, _ = os.ReadFile(filepath.Join(local.dir, logName))
	if payloads, _, _ := replayAll(raw); len(payloads) != 2 || payloads[1][0] != recEpoch {
		t.Fatalf("local store's rewritten log holds %d records", len(payloads))
	}
	if got := reopen(raw).Energies(); got != nil {
		t.Fatalf("local store recovered a ledger %v", got)
	}
}
