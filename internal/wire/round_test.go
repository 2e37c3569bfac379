package wire

// The roster block's exact bytes: a table pinning every byte of the
// run-coded form and every way a block can fail to be canonical, the
// block's size on real scale-1000 epochs, the codec's allocations, and a
// micro-benchmark of one scale-1000 shard's reply.

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/shard"
	"kspot/internal/topk"
)

// blockRoster is the table's roster: two rooms of three nodes (ids 1-3 in
// group 1, 4-6 in group 2) and node 300, which sits in group 9.
var blockRoster = []model.NodeID{1, 2, 3, 4, 5, 6, 300}

// room reads node id in blockRoster's layout at epoch e.
func room(id model.NodeID, e model.Epoch, v model.Value) model.Reading {
	g := model.GroupID(1)
	switch {
	case id == 300:
		g = 9
	case id > 3:
		g = 2
	}
	return model.Reading{Node: id, Group: g, Epoch: e, Value: v}
}

func readingsOf(rs ...model.Reading) map[model.NodeID]model.Reading {
	m := make(map[model.NodeID]model.Reading, len(rs))
	for _, r := range rs {
		m[r.Node] = r
	}
	return m
}

// TestRosterBlockBytes pins the block's every byte: bitmap, group runs,
// epoch runs, value chain. Each case decodes back to its readings and
// re-encodes to its bytes; every reject row differs from a valid block in
// one place and is refused.
func TestRosterBlockBytes(t *testing.T) {
	full := readingsOf(room(1, 7, 1), room(2, 7, 2), room(3, 7, 3), room(4, 7, 4), room(5, 7, 5), room(6, 7, 6), room(300, 7, 7))
	cases := []struct {
		name     string
		readings map[model.NodeID]model.Reading
		want     string // bitmap | group runs | epoch runs | values, hex
	}{
		{"empty", nil, "00" + "00" + "00"},
		{"one node", readingsOf(room(2, 7, 0.5)),
			"02" + "01" + "0100" + "01" + "0000" + "64"},
		// Three group runs (1, 2, 9) of 3, 3, 1; one epoch run of 7;
		// values rising by 1.00 each (zigzag 200 = c8 01).
		{"full two-room roster", full,
			"7f" + "03" + "0102" + "0202" + "0900" + "01" + "0006" + "c801" + "c801" + "c801" + "c801" + "c801" + "c801" + "c801"},
		// Churn left holes at 2 and 4: present 1, 3, 5, 6.
		{"holes left by churn", readingsOf(room(1, 7, 10), room(3, 7, 10), room(5, 7, 10), room(6, 7, 10)),
			"35" + "02" + "0101" + "0201" + "01" + "0003" + "d00f" + "00" + "00" + "00"},
		// Node 300's reading is two epochs past the reference (zigzag 4).
		{"reading off the reference epoch", readingsOf(room(2, 7, 42.25), room(5, 7, -17.5), room(300, 9, 0)),
			"52" + "03" + "0100" + "0200" + "0900" + "02" + "0001" + "0400" + "8242" + "ad5d" + "ac1b"},
		// One epoch run spans the group change from room 1 to room 2.
		{"group change inside an epoch run", readingsOf(room(3, 7, 0), room(4, 7, 0)),
			"0c" + "02" + "0100" + "0200" + "01" + "0001" + "00" + "00"},
		{"negative values", readingsOf(room(1, 7, -0.01), room(2, 7, -1.28), room(3, 7, -1.28)),
			"07" + "01" + "0102" + "01" + "0002" + "01" + "fd01" + "00"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := AppendRosterReadings(nil, blockRoster, 7, c.readings)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(b); got != c.want {
				t.Fatalf("block %s, want %s", got, c.want)
			}
			got, rest, err := DecodeRosterReadings(b, blockRoster, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 || len(got) != len(c.readings) {
				t.Fatalf("decoded %d readings with %d bytes left, want %d and none", len(got), len(rest), len(c.readings))
			}
			for id, want := range c.readings {
				if got[id] != want {
					t.Fatalf("node %d: %+v, want %+v", id, got[id], want)
				}
			}
		})
	}

	// An override block rides a round reply's group behind its answers,
	// in the same form: here node 300 alone, under the reply's epoch.
	rep := EpochRoundReply{Epoch: 7, Readings: readingsOf(room(1, 7, 1)), Groups: []RoundGroup{
		{Answers: []model.Answer{{Group: 9, Score: 2}}, Override: readingsOf(room(300, 7, 2))}}}
	b, err := AppendEpochRoundReply(nil, blockRoster, rep)
	if err != nil {
		t.Fatal(err)
	}
	want := "07000000" + // epoch
		"01" + "01" + "0100" + "01" + "0000" + "c801" + // sense block
		"0100" + "01" + "0100" + "0900" + "c8000000" + // one group, override status, one answer
		"40" + "01" + "0900" + "01" + "0000" + "9003" // override block
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("override reply %s, want %s", got, want)
	}
	if got, err := DecodeEpochRoundReply(b, blockRoster); err != nil || got.Groups[0].Override[300] != rep.Groups[0].Override[300] {
		t.Fatalf("override reply decoded to %+v, %v", got, err)
	}

	rejects := []struct{ name, block string }{
		{"adjacent equal group runs", "03" + "02" + "0100" + "0100" + "01" + "0001" + "00" + "00"},
		{"adjacent equal epoch runs", "03" + "01" + "0101" + "02" + "0000" + "0000" + "00" + "00"},
		{"group runs longer than the popcount", "03" + "01" + "0102" + "01" + "0001" + "00" + "00"},
		{"group runs shorter than the popcount", "03" + "01" + "0100" + "01" + "0001" + "00" + "00"},
		{"epoch runs longer than the popcount", "03" + "01" + "0101" + "01" + "0002" + "00" + "00"},
		{"epoch runs shorter than the popcount", "03" + "01" + "0101" + "01" + "0000" + "00" + "00"},
		{"runs over an empty bitmap", "00" + "01" + "0100" + "00"},
		{"no runs over a present node", "01" + "00" + "00" + "00"},
		{"non-minimal uvarint", "01" + "01" + "8100" + "00" + "01" + "0000" + "00"},
		{"group 65 536", "01" + "01" + "80800400" + "01" + "0000" + "00"},
		{"epoch below 0", "01" + "01" + "0100" + "01" + "0f00" + "00"}, // 7 − 8
		{"epoch above MaxUint32", "01" + "01" + "0100" + "01" + "f2ffffff1f00" + "00"},
		{"run count past the bytes left", "01" + "7f" + "0100"},
		{"padding bit set", "80" + "00" + "00"},
		{"truncated value chain", "01" + "01" + "0100" + "01" + "0000"},
	}
	for _, r := range rejects {
		b, err := hex.DecodeString(r.block)
		if err != nil {
			t.Fatal(err)
		}
		if m, _, err := DecodeRosterReadings(b, blockRoster, 7); err == nil {
			t.Errorf("%s: decoded to %v", r.name, m)
		}
	}
	// The epoch rows sit just outside the bounds the valid forms reach.
	for _, e := range []int64{0, math.MaxUint32} {
		b, err := AppendRosterReadings(nil, blockRoster, 7, readingsOf(room(1, model.Epoch(e), 0)))
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := DecodeRosterReadings(b, blockRoster, 7); err != nil || got[1].Epoch != model.Epoch(e) {
			t.Fatalf("epoch %d: decoded %+v, %v", e, got, err)
		}
	}
}

// TestRoundReplyBytesScale1000 encodes the sense block of 300 real epochs
// of both shards of config.ScaleScenarioShards(1000, 2) at workload seed 1
// and pins the block bytes per shard. Beside them it pins what the same
// readings take in the per-node form this one replaced — bitmap plus a
// group uvarint, an epoch zigzag delta and a value zigzag delta per node —
// so the ratio between the two stays a tested fact.
func TestRoundReplyBytesScale1000(t *testing.T) {
	const epochs = 300
	scen, err := config.ScaleScenarioShards(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	scen.Workload.Seed = 1
	wantRunCoded := []int{310098, 310160}
	wantPerNode := []int{593598, 593660}
	for i := range scen.Shards {
		body, err := shard.New(shard.Config{Scenario: scen, Shard: i})
		if err != nil {
			t.Fatal(err)
		}
		roster := body.Roster()
		runCoded, perNode := 0, 0
		var b []byte
		for e := model.Epoch(0); e < epochs; e++ {
			readings, _, err := body.EpochRound(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			if b, err = AppendRosterReadings(b[:0], roster, e, readings); err != nil {
				t.Fatal(err)
			}
			runCoded += len(b)
			perNode += perNodeSize(roster, e, readings)
		}
		body.Close()
		t.Logf("shard %d (%d nodes): %d B run-coded, %d B per-node over %d epochs", i, len(roster), runCoded, perNode, epochs)
		if runCoded != wantRunCoded[i] || perNode != wantPerNode[i] {
			t.Errorf("shard %d: %d B run-coded and %d B per-node, want %d and %d", i, runCoded, perNode, wantRunCoded[i], wantPerNode[i])
		}
	}
}

// perNodeSize is the size of the per-node block form: the bitmap, then
// per present node its group uvarint, its epoch's zigzag delta from e and
// its value's zigzag delta from the previous node's.
func perNodeSize(roster []model.NodeID, e model.Epoch, readings map[model.NodeID]model.Reading) int {
	n, prev := (len(roster)+7)/8, int64(0)
	for _, id := range roster {
		r, ok := readings[id]
		if !ok {
			continue
		}
		fixed := int64(model.ToFixed(r.Value))
		n += uvarintLen(uint64(uint16(r.Group))) + uvarintLen(zigzag(int64(r.Epoch)-int64(e))) + uvarintLen(zigzag(fixed-prev))
		prev = fixed
	}
	return n
}

// scale1000Reply is shard 0's epoch-round reply of a scale-1000, 2-shard
// deployment at epoch 5: its 500 nodes' readings and one ranked answer
// list for each of two sensing signatures.
func scale1000Reply(tb testing.TB) ([]model.NodeID, EpochRoundReply) {
	tb.Helper()
	scen, err := config.ScaleScenarioShards(1000, 2)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := shard.New(shard.Config{Scenario: scen, Shard: 0})
	if err != nil {
		tb.Fatal(err)
	}
	defer body.Close()
	var readings map[model.NodeID]model.Reading
	for e := model.Epoch(0); e <= 5; e++ {
		if readings, _, err = body.EpochRound(e, nil); err != nil {
			tb.Fatal(err)
		}
	}
	rep := EpochRoundReply{Epoch: 5, Readings: readings}
	for _, agg := range []string{"AVG", "MAX"} {
		plan, err := query.PlanText("SELECT TOP 4 roomid, "+agg+"(sound) FROM sensors GROUP BY roomid", query.DefaultSchema())
		if err != nil {
			tb.Fatal(err)
		}
		rep.Groups = append(rep.Groups, RoundGroup{Answers: topk.ExactSnapshot(readings, plan.Snapshot)})
	}
	return body.Roster(), rep
}

// TestRoundReplyAllocations pins the reply path's allocations: encoding a
// scale-1000 shard's reply into a buffer with room allocates nothing, and
// framing a reply — header, envelope and payload — allocates its one
// buffer.
func TestRoundReplyAllocations(t *testing.T) {
	roster, rep := scale1000Reply(t)
	payload, err := AppendEpochRoundReply(nil, roster, rep)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 2*len(payload))
	if n := testing.AllocsPerRun(100, func() {
		dst, err = AppendEpochRoundReply(dst[:0], roster, rep)
	}); n != 0 || err != nil {
		t.Fatalf("AppendEpochRoundReply into a buffer with room: %v allocations, %v", n, err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("encoding into a reused buffer diverged")
	}
	var frame []byte
	if n := testing.AllocsPerRun(100, func() {
		frame = appendReply(9, MsgEpochRoundReply, fuzzEnvelope, payload)
	}); n != 1 {
		t.Fatalf("framing a reply: %v allocations, want 1", n)
	}
	f, size, err := DecodeFrame(frame)
	if err != nil || size != len(frame) || f.Seq != 9 || f.Type != MsgEpochRoundReply {
		t.Fatalf("framed reply decodes to %v, %d of %d bytes, %v", f, size, len(frame), err)
	}
	env, rest, err := DecodeEnvelope(f.Payload)
	if err != nil || env.Stamp != fuzzEnvelope.Stamp || !bytes.Equal(rest, payload) {
		t.Fatalf("framed reply carries envelope %+v and %d payload bytes, %v", env, len(rest), err)
	}
}

// BenchmarkEpochRoundReplyCodec is the encode plus decode of one
// scale-1000 shard's epoch-round reply (500 nodes, two groups) — the
// in-package form of the benchmark harness's wire.codec_us_per_round.
func BenchmarkEpochRoundReplyCodec(b *testing.B) {
	roster, rep := scale1000Reply(b)
	b.ReportAllocs()
	for b.Loop() {
		payload, err := AppendEpochRoundReply(nil, roster, rep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeEpochRoundReply(payload, roster); err != nil {
			b.Fatal(err)
		}
	}
}
