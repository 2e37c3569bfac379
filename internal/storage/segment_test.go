package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kspot/internal/model"
)

// TestWindowErrorPaths table-tests the validation errors of the window
// layer: every rejected construction or access carries a field-path-style
// message (like scenario Validate's), so a wrapped error names exactly
// what was out of range.
func TestWindowErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
		want string
	}{
		{"capacity zero", func() error { _, err := NewWindow(0); return err },
			"storage: window.capacity: must be >= 1, got 0"},
		{"capacity negative", func() error { _, err := NewWindow(-3); return err },
			"storage: window.capacity: must be >= 1, got -3"},
		{"capacity zero with backend", func() error { _, err := NewWindowOn(0, Memory{}); return err },
			"storage: window.capacity: must be >= 1, got 0"},
		{"at negative", func() error {
			w, _ := NewWindow(2)
			w.Push(1, 1)
			_, _, err := w.At(-1)
			return err
		}, "storage: window.at[-1]: out of range [0,1)"},
		{"at past size", func() error {
			w, _ := NewWindow(2)
			w.Push(1, 1)
			_, _, err := w.At(1)
			return err
		}, "storage: window.at[1]: out of range [0,1)"},
		{"push regression", func() error {
			w, _ := NewWindow(2)
			w.Push(5, 1)
			return w.Push(5, 2)
		}, "storage: window.push: epoch 5 not after 5"},
		{"bucket out of range", func() error {
			w, _ := NewWindow(4)
			mh, _ := NewMicroHash(w, 0, 100, 4)
			_, err := mh.Bucket(9)
			return err
		}, "storage: microhash.bucket[9]: out of range [0,4)"},
		{"bucket negative", func() error {
			w, _ := NewWindow(4)
			mh, _ := NewMicroHash(w, 0, 100, 4)
			_, err := mh.Bucket(-1)
			return err
		}, "storage: microhash.bucket[-1]: out of range [0,4)"},
		{"microhash buckets", func() error { _, err := NewMicroHash(nil, 0, 100, 0); return err },
			"storage: microhash.buckets: must be >= 1, got 0"},
		{"microhash range", func() error { _, err := NewMicroHash(nil, 100, 0, 4); return err },
			"storage: microhash.range: [100,0] inverted"},
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

// TestRecordRoundTrip pins the canonical record form: encode∘decode is the
// identity and the frame size is the documented constant.
func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: RecordPush, Epoch: 0, Value: 0},
		{Kind: RecordPush, Epoch: 7, Value: 4225},
		{Kind: RecordPush, Epoch: 1<<32 - 1, Value: -350},
	}
	for _, r := range recs {
		b := AppendRecord(nil, r)
		if len(b) != RecordWireSize {
			t.Fatalf("record wire size %d, want %d", len(b), RecordWireSize)
		}
		got, n, err := DecodeRecord(b)
		if err != nil || n != len(b) || got != r {
			t.Fatalf("round trip %+v -> %+v, %d, %v", r, got, n, err)
		}
	}
}

// TestSegmentTornTailEveryBoundary truncates a three-record segment at
// every byte boundary of its final record and asserts recovery keeps the
// first two records intact — exactly the torn record is dropped, never a
// whole window.
func TestSegmentTornTailEveryBoundary(t *testing.T) {
	full := []Record{
		{Kind: RecordPush, Epoch: 1, Value: 100},
		{Kind: RecordPush, Epoch: 2, Value: 200},
		{Kind: RecordPush, Epoch: 3, Value: 300},
	}
	var seg []byte
	for _, r := range full {
		seg = AppendRecord(seg, r)
	}
	for cut := 2 * RecordWireSize; cut < len(seg); cut++ {
		recs, clean := ReplaySegment(seg[:cut])
		if clean != 2*RecordWireSize {
			t.Fatalf("cut %d: clean prefix %d, want %d", cut, clean, 2*RecordWireSize)
		}
		if len(recs) != 2 || recs[0] != full[0] || recs[1] != full[1] {
			t.Fatalf("cut %d: recovered %+v", cut, recs)
		}
	}
	// And through the real file path: OpenDisk must truncate the torn tail
	// on disk and keep appending after the clean prefix.
	for cut := 2 * RecordWireSize; cut < len(seg); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "node-1.seg")
		if err := os.WriteFile(path, seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, recs, err := OpenDisk(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut %d: recovered %d records", cut, len(recs))
		}
		if err := d.Append(Record{Kind: RecordPush, Epoch: 3, Value: 333}); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		got, clean := ReplaySegment(raw)
		if clean != len(raw) || len(got) != 3 || got[2].Value != 333 {
			t.Fatalf("cut %d: post-append segment %+v (clean %d of %d)", cut, got, clean, len(raw))
		}
	}
}

// TestSegmentMidFileCorruption: a flipped byte in the middle of a segment
// ends the clean prefix there — recovery keeps everything before it.
func TestSegmentMidFileCorruption(t *testing.T) {
	var seg []byte
	for e := 1; e <= 4; e++ {
		seg = AppendRecord(seg, Record{Kind: RecordPush, Epoch: model.Epoch(e), Value: int64(e)})
	}
	seg[RecordWireSize+6] ^= 0xFF // inside record 2's payload
	recs, clean := ReplaySegment(seg)
	if clean != RecordWireSize || len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("recovered %+v (clean %d)", recs, clean)
	}
}

// TestDiskOffsetOfPush pins the O(1) push-counter → segment-offset map,
// including across Clear (truncate), mirroring Window.OffsetOfPush.
func TestDiskOffsetOfPush(t *testing.T) {
	d, recs, err := OpenDisk(filepath.Join(t.TempDir(), "node-9.seg"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("fresh disk: %v, %d records", err, len(recs))
	}
	defer d.Close()
	for e := 1; e <= 3; e++ {
		if err := d.Append(Record{Kind: RecordPush, Epoch: model.Epoch(e), Value: int64(e)}); err != nil {
			t.Fatal(err)
		}
	}
	for c, want := range map[uint64]int64{0: 0, 1: RecordWireSize, 2: 2 * RecordWireSize, 3: -1} {
		if got := d.OffsetOfPush(c); got != want {
			t.Fatalf("OffsetOfPush(%d) = %d, want %d", c, got, want)
		}
	}
	if err := d.Clear(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Record{Kind: RecordPush, Epoch: 9, Value: 9}); err != nil {
		t.Fatal(err)
	}
	if got := d.OffsetOfPush(2); got != -1 {
		t.Fatalf("pre-clear push resolvable at %d", got)
	}
	if got := d.OffsetOfPush(3); got != 0 {
		t.Fatalf("post-clear push at %d, want 0", got)
	}
}

// TestWindowDiskRecovery: a window pushed through a Disk backend recovers
// byte-identically — same series, same epochs — from its segment file, and
// continues accepting pushes.
func TestWindowDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node-3.seg")
	d, _, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowOn(3, d)
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 5; e++ {
		if err := w.Push(model.Epoch(e), model.Value(e)*1.25); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, recs, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	w2, _ := NewWindow(3)
	for _, r := range recs {
		if err := w2.Push(r.Epoch, model.FromFixed(model.FixedPoint(r.Value))); err != nil {
			t.Fatal(err)
		}
	}
	w2.Attach(d2)
	if fmt.Sprint(w2.Series()) != fmt.Sprint(w.Series()) || fmt.Sprint(w2.Epochs()) != fmt.Sprint(w.Epochs()) {
		t.Fatalf("recovered %v@%v, want %v@%v", w2.Series(), w2.Epochs(), w.Series(), w.Epochs())
	}
	if err := w2.Push(6, 60); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRecordRecoverStats drives the store through record → reopen →
// record and checks idempotent replay, cursor recovery and the stats
// block.
func TestStoreRecordRecoverStats(t *testing.T) {
	dir := t.TempDir()
	readings := func(e model.Epoch) map[model.NodeID]model.Reading {
		return map[model.NodeID]model.Reading{
			1: {Node: 1, Epoch: e, Value: model.Value(e) * 10},
			2: {Node: 2, Epoch: e, Value: model.Value(e) * 20},
		}
	}
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for e := model.Epoch(0); e < 3; e++ {
		st.RecordReadings(e, readings(e))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Nodes != 2 || stats.Segments != 2 || !stats.HasEpoch || stats.LastEpoch != 2 || stats.Bytes != 2*3*RecordWireSize {
		t.Fatalf("stats %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
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
	re.RecordReadings(2, readings(2))
	re.RecordReadings(3, readings(3))
	if err := re.Err(); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Bytes; got != 2*4*RecordWireSize {
		t.Fatalf("bytes after replay %d, want %d (epoch 2 must not re-append)", got, 2*4*RecordWireSize)
	}
	// Memory mode: same API, no files.
	mem, err := OpenStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	mem.RecordReadings(0, readings(0))
	if s := mem.Stats(); s.Segments != 0 || s.Nodes != 2 || s.Bytes != 0 {
		t.Fatalf("memory stats %+v", s)
	}
}

// TestShardStateRoundTripAndRestore: State → encode → decode → Restore
// into a fresh store reproduces the identical snapshot bytes, split or
// whole — the invariant migration relies on.
func TestShardStateRoundTripAndRestore(t *testing.T) {
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
	energy := func(n model.NodeID) float64 { return float64(n) * 1.5 }
	state := src.State(energy)
	enc := AppendShardState(nil, state)
	dec, err := DecodeShardState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if re := AppendShardState(nil, dec); string(re) != string(enc) {
		t.Fatalf("decode∘re-encode drifted:\n%x\n%x", enc, re)
	}

	dst, err := OpenStore(filepath.Join(t.TempDir(), "restore"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Restore(dec); err != nil {
		t.Fatal(err)
	}
	back := dst.State(energy)
	if string(AppendShardState(nil, back)) != string(enc) {
		t.Fatalf("restored state drifted:\n%+v\n%+v", back, dec)
	}

	// Splitting by node keeps the cursor and exactly the kept nodes.
	part := state.FilterNodes(map[model.NodeID]bool{7: true})
	if len(part.Nodes) != 1 || part.Nodes[0].Node != 7 || part.Epoch != state.Epoch || part.HasEpoch != state.HasEpoch {
		t.Fatalf("filtered %+v", part)
	}
}

// TestShardStateDecodeRejects table-tests the canonical-form guards.
func TestShardStateDecodeRejects(t *testing.T) {
	good := AppendShardState(nil, ShardState{HasEpoch: true, Epoch: 3, Nodes: []NodeState{
		{Node: 1, EnergyUJ: 2.5, Epochs: []model.Epoch{1, 2}, Values: []int64{10, 20}},
	}})
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad flag", func(b []byte) []byte { b[4] = 9; return b }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"epoch order", func(b []byte) []byte {
			return AppendShardState(nil, ShardState{HasEpoch: true, Epoch: 3, Nodes: []NodeState{
				{Node: 1, Epochs: []model.Epoch{2, 2}, Values: []int64{1, 2}},
			}})
		}},
		{"node order", func(b []byte) []byte {
			return AppendShardState(nil, ShardState{HasEpoch: true, Epoch: 3, Nodes: []NodeState{
				{Node: 5}, {Node: 5},
			}})
		}},
		{"cursor without flag", func(b []byte) []byte {
			return AppendShardState(nil, ShardState{HasEpoch: false, Epoch: 3})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			if _, err := DecodeShardState(b); err == nil {
				t.Fatal("accepted")
			} else if !strings.HasPrefix(err.Error(), "storage: ") {
				t.Fatalf("error %q lost its package path", err)
			}
		})
	}
}

// BenchmarkWindowDiskPush measures the durable push path — one framed
// record append per push through the bufio'd segment — against the
// memory baseline BenchmarkWindowMemoryPush.
func BenchmarkWindowDiskPush(b *testing.B) {
	d, _, err := OpenDisk(filepath.Join(b.TempDir(), "bench.seg"))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	w, _ := NewWindowOn(64, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Push(model.Epoch(i+1), model.Value(i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowMemoryPush is the no-backend baseline for the <5%
// regression budget of the default path.
func BenchmarkWindowMemoryPush(b *testing.B) {
	w, _ := NewWindow(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Push(model.Epoch(i+1), model.Value(i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecovery measures reopening a data dir with 16 nodes × 64
// buffered epochs — the recovery_ms number BENCH.json tracks.
func BenchmarkStoreRecovery(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenStore(dir, 64)
	if err != nil {
		b.Fatal(err)
	}
	for e := model.Epoch(0); e < 64; e++ {
		m := make(map[model.NodeID]model.Reading, 16)
		for n := model.NodeID(1); n <= 16; n++ {
			m[n] = model.Reading{Node: n, Epoch: e, Value: model.Value(n * model.NodeID(e))}
		}
		st.RecordReadings(e, m)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := OpenStore(dir, 64)
		if err != nil {
			b.Fatal(err)
		}
		if e, ok := re.Cursor(); !ok || e != 63 {
			b.Fatalf("cursor %d,%v", e, ok)
		}
		b.StopTimer()
		re.Close()
		b.StartTimer()
	}
}
