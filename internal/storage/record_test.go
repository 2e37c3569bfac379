package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kspot/internal/model"
)

// h decodes a hex string, spaces ignored.
func h(s string) []byte {
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		panic(err)
	}
	return b
}

// fullRoster is the epoch-9 record of a scale-1000 roster, nodes 1..1000,
// node n reading 2 880 + n centi-units: one run (gap 1, len−1 999), base
// 2 881 and the offsets 0..999 in 2 bytes each.
func fullRoster() (nodes []model.NodeID, vals []int64, want []byte) {
	want = h("01 09000000 01 01 e707 822d 02")
	for n := model.NodeID(1); n <= 1000; n++ {
		nodes, vals = append(nodes, n), append(vals, 2880+int64(n))
		want = binary.LittleEndian.AppendUint16(want, uint16(n-1))
	}
	return nodes, vals, want
}

// recordRejects are epoch-record payloads one rule of the canonical form
// refuses; each would decode with that rule broken
// (TestLogAndBatchDecodeRejects, FuzzSegmentDecode's seeds).
var recordRejects = []struct {
	name string
	p    []byte
}{
	{"non-minimal uvarint", h("01 07000000 01 8100 00 00 00")},
	{"node 65536", h("01 07000000 01 808004 00 00 00")},
	{"run past node 65535", h("01 07000000 01 ffff03 01 00 00")},
	{"width 9", h("01 07000000 01 01 00 00 09 000000000000000000")},
	{"width wider than needed", h("01 07000000 01 01 01 00 02 0000 0100")},
	{"least offset not 0", h("01 07000000 01 01 01 00 01 01 02")},
	{"trailing bytes", h("01 07000000 01 01 00 00 00 00")},
	{"empty record with a base", h("01 07000000 00 02 00")},
	{"value past int64", h("01 07000000 01 01 01 feffffffffffffffff01 01 00 01")},
	{"runs beyond the bytes left", h("01 07000000 05 01 00 00 00")},
}

// TestRecordRoundTrip pins both record kinds to the byte: each row
// encodes to exactly want, and want decodes back to the row. A scale-1000
// epoch whose readings span under 655.36 units costs 2 bytes a node.
func TestRecordRoundTrip(t *testing.T) {
	rosterNodes, rosterVals, rosterWant := fullRoster()
	epochs := []struct {
		name  string
		epoch model.Epoch
		nodes []model.NodeID
		vals  []int64
		want  []byte
	}{
		{"empty record", 7, nil, nil, h("01 07000000 00 00 00")},
		{"one node", 7, []model.NodeID{1}, []int64{4225}, h("01 07000000 01 01 00 8242 00")},
		{"full scale-1000 roster", 9, rosterNodes, rosterVals, rosterWant},
		{"holes left by churn", 2, []model.NodeID{1, 2, 3, 6, 7, 10}, []int64{100, 101, 102, 110, 111, 120},
			h("01 02000000 03 01 02 01 01 01 00 c801 01 00 01 02 0a 0b 14")},
		{"all values equal", 5, []model.NodeID{4, 5}, []int64{-7, -7}, h("01 05000000 01 04 01 0d 00")},
		{"negative values", 1, []model.NodeID{1, 2}, []int64{-350, 0}, h("01 01000000 01 01 01 bb05 02 0000 5e01")},
		{"int64 extremes", 3, []model.NodeID{65534, 65535}, []int64{math.MinInt64, math.MaxInt64},
			h("01 03000000 01 feff03 01 ffffffffffffffffff01 08 0000000000000000 ffffffffffffffff")},
	}
	for _, tc := range epochs {
		if got := appendEpochRecord(nil, tc.epoch, tc.nodes, tc.vals); !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: encoded\n%x\nwant\n%x", tc.name, got, tc.want)
		}
		e, nodes, vals, err := DecodeReadings(tc.want[1:])
		if err != nil || e != tc.epoch || !slices.Equal(nodes, tc.nodes) || !slices.Equal(vals, tc.vals) {
			t.Fatalf("%s: decoded epoch %d, nodes %v, values %v (%v)", tc.name, e, nodes, vals, err)
		}
	}
	rows := []NodeEnergy{{4, 40.5}, {7, 0}}
	want := h("02 03000000 02 04 00 01 00 0000000000404440 0000000000000000")
	if got := nodeRecord(3, rows); !bytes.Equal(got, want) {
		t.Fatalf("node record: encoded %x, want %x", got, want)
	}
	if e, got, err := DecodeEnergies(want[1:]); err != nil || e != 3 || !slices.Equal(got, rows) {
		t.Fatalf("node record: decoded epoch %d, rows %v (%v)", e, got, err)
	}
}

// TestOpenStoreRefusesAnOlderLog: a shard.log an older build wrote — here
// format version 1, whose epoch record held a u32 count and fixed 10-byte
// (node u16, value s64) entries — is refused by name and version, not
// misread, and left as it was.
func TestOpenStoreRefusesAnOlderLog(t *testing.T) {
	v1 := h("4b534c47 01000000" + // KSLG, version 1
		"1d000000 01 05000000 02000000 0100 8110000000000000 0200 a2feffffffffffff d416c2ad") // epoch 5: node 1 42.25, node 2 −3.50
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(dir, 4)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "version 1, this build reads 2") {
		t.Fatalf("opened a version-1 log: %v", err)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, v1) {
		t.Fatal("the refused log was modified")
	}
}

// BenchmarkStoreRecover times recovery — OpenStore over a scale-1000 log
// of 640 epochs, readings spread over 28.80–90.93 units as the daemon's
// scenarios sense them — and reports the log's size.
func BenchmarkStoreRecover(b *testing.B) {
	const nodes, epochs = 1000, 640
	dir := b.TempDir()
	st, err := OpenStore(dir, DefaultStoreWindow)
	if err != nil {
		b.Fatal(err)
	}
	m := make(map[model.NodeID]model.Reading, nodes)
	x := uint32(1)
	for e := model.Epoch(0); e < epochs; e++ {
		for n := model.NodeID(1); n <= nodes; n++ {
			x = x*1664525 + 1013904223
			m[n] = model.Reading{Node: n, Epoch: e, Value: 28.80 + model.Value(x>>8%6214)/100}
		}
		st.RecordReadings(e, m)
	}
	size := st.Stats().Bytes
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		re, err := OpenStore(dir, DefaultStoreWindow)
		if err != nil {
			b.Fatal(err)
		}
		re.Close()
	}
	b.ReportMetric(float64(size), "log-B")
}

// BenchmarkStoreRecordReadings times the steady state of an in-memory
// store's per-epoch tap: a scale-1000 epoch, every node already seated.
// TestStoreRecordWritePath pins that it allocates nothing.
func BenchmarkStoreRecordReadings(b *testing.B) {
	st, err := OpenStore("", DefaultStoreWindow)
	if err != nil {
		b.Fatal(err)
	}
	m := readings(0, 1000)
	st.RecordReadings(0, m)
	e := model.Epoch(1)
	for b.Loop() {
		st.RecordReadings(e, m)
		e++
	}
}
