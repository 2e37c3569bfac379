package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/stats"
	"kspot/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Seq: 1, Type: MsgHello, Payload: []byte("hello")},
		{Seq: 0, Type: MsgClose, Payload: nil},
		{Seq: ^uint64(0), Type: MsgEpochRoundReply, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}

	// The reader path must agree with the in-memory path.
	r := bytes.NewReader(stream)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read frame %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestFrameRejects(t *testing.T) {
	full := AppendFrame(nil, Frame{Seq: 7, Type: MsgEpochRound, Payload: []byte{1, 2, 3}})

	// Every truncation of a valid frame must fail cleanly, never panic.
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFrame(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated read at %d succeeded", cut)
		}
	}

	// A declared length below the seq+type minimum is malformed.
	runt := []byte{8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, err := DecodeFrame(runt); err == nil {
		t.Fatal("runt length accepted")
	}

	// An oversized declared length must be refused before any allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if _, _, err := DecodeFrame(huge); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame read")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := Hello{Version: Version, Shard: 2, Shards: 4, Nodes: 250, Nonce: 0xDEADBEEF00000001, Scenario: "scale-1000",
		Attachments: []AttachReq{{Query: 9, Algo: "mint", SQL: "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"}, {Query: 4}}}
	for _, h := range []Hello{h, {Version: Version, Scenario: "demo"}} {
		got, err := DecodeHello(AppendHello(nil, h))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("hello %+v != %+v", got, h)
		}
	}
	w := Welcome{Version: Version, Shard: 2, Nodes: 250, Name: "shard-2", Counters: Envelope{
		Stamp: 7, Storage: storage.StoreStats{Nodes: 250}, Row: stats.RunStats{Epochs: 3, Messages: 9, PerKind: map[radio.MsgKind]int{radio.KindData: 40}},
	}}
	gw, err := DecodeWelcome(AppendWelcome(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gw, w) {
		t.Fatalf("welcome %+v != %+v", gw, w)
	}
}

func TestHandshakeRejects(t *testing.T) {
	valid := AppendHello(nil, Hello{Version: Version, Scenario: "demo"})
	attaching := AppendHello(nil, Hello{Version: Version, Scenario: "demo", Attachments: []AttachReq{{Query: 1, Algo: "tag", SQL: "SELECT"}, {Query: 2}}})
	for _, full := range [][]byte{valid, attaching} {
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeHello(full[:cut]); err == nil {
				t.Fatalf("truncated hello at %d of %d accepted", cut, len(full))
			}
		}
	}
	// Wrong magic.
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	if _, err := DecodeHello(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt magic: %v", err)
	}
	// Trailing garbage.
	if _, err := DecodeHello(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	wl := AppendWelcome(nil, Welcome{Version: Version, Name: "shard-0"})
	for cut := 0; cut < len(wl); cut++ {
		if _, err := DecodeWelcome(wl[:cut]); err == nil {
			t.Fatalf("truncated welcome at %d accepted", cut)
		}
	}

	// Version skew is refused on the version field alone — a version-1
	// hello (which still carried a capability word before the nonce) must
	// not be misparsed under this version's layout — and the error states
	// both versions, in the codec and from a live server.
	v1 := binary.LittleEndian.AppendUint32(nil, Magic)
	for _, f := range []uint16{1 /* version */, 0 /* shard */, 1 /* shards */, 14 /* nodes */, 3 /* caps */} {
		v1 = binary.LittleEndian.AppendUint16(v1, f)
	}
	v1 = binary.LittleEndian.AppendUint64(v1, 0xDEADBEEF00000001)
	v1 = appendString(v1, "demo")
	bothVersions := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), fmt.Sprintf("speaks %d", Version)) {
			t.Fatalf("%s: %v, want an error naming versions 1 and %d", what, err, Version)
		}
	}
	_, err := DecodeHello(v1)
	bothVersions("v1 hello", err)
	skewed := AppendWelcome(nil, Welcome{Version: 1, Name: "shard-0"})
	_, err = DecodeWelcome(skewed)
	bothVersions("v1 welcome", err)
	// The previous version too: its hello carried no attachments, so a
	// restarted shard of a mixed deployment would serve no queries.
	_, err = DecodeHello(AppendHello(nil, Hello{Version: Version - 1, Scenario: "demo"}))
	if want := fmt.Sprintf("version %d, server speaks %d", Version-1, Version); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("previous-version hello: %v, want an error naming %q", err, want)
	}

	addr, _ := startTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wbuf []byte
	if err := WriteFrame(conn, &wbuf, Frame{Seq: 1, Type: MsgHello, Payload: v1}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError {
		t.Fatalf("server answered a v1 hello with %v", reply.Type)
	}
	bothVersions("server reply to a v1 hello", errors.New(string(reply.Payload)))
}

func TestPayloadCodecsRoundTrip(t *testing.T) {
	// Historic TOP-K rows carry signed 64-bit centi-sums: values beyond the
	// 6-byte snapshot answer codec's int32 saturation must survive.
	big := []model.Answer{
		{Group: 7, Score: model.Value(30_000_000.25)},
		{Group: 2, Score: model.Value(-30_000_000.25)},
	}
	nodes, gotBig, err := DecodeTopK(AppendTopK(nil, 250, big))
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 250 || !model.EqualAnswers(gotBig, big) {
		t.Fatalf("topk round-trip: nodes %d %v", nodes, gotBig)
	}

	// Fetch / sums.
	ids := []model.GroupID{5, 1, 9}
	window, gotIDs, err := DecodeFetch(AppendFetch(nil, 42, ids))
	if err != nil {
		t.Fatal(err)
	}
	if window != 42 || !slices.Equal(gotIDs, ids) {
		t.Fatalf("fetch round-trip: window %d ids %v", window, gotIDs)
	}
	sums := map[model.GroupID]int64{5: -123456789, 1: 0, 9: 1 << 40}
	gotSums, err := DecodeSums(AppendSums(nil, sums))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSums) != len(sums) {
		t.Fatalf("sums round-trip: %v", gotSums)
	}
	for g, s := range sums {
		if gotSums[g] != s {
			t.Fatalf("group %d: %d != %d", g, gotSums[g], s)
		}
	}

	// Attach and historic requests.
	att, err := DecodeAttach(AppendAttach(nil, AttachReq{Query: 3, Algo: "mint", SQL: "SELECT TOP 3 ..."}))
	if err != nil {
		t.Fatal(err)
	}
	if att.Query != 3 || att.Algo != "mint" || att.SQL != "SELECT TOP 3 ..." {
		t.Fatalf("attach round-trip: %+v", att)
	}
	hr, err := DecodeHistoric(AppendHistoric(nil, HistoricReq{K: 4, Window: 65535, Agg: model.AggSum, Algo: "tja"}))
	if err != nil {
		t.Fatal(err)
	}
	if hr != (HistoricReq{K: 4, Window: 65535, Agg: model.AggSum, Algo: "tja"}) {
		t.Fatalf("historic round-trip: %+v", hr)
	}
}

func TestPayloadCodecsReject(t *testing.T) {
	valids := [][]byte{
		AppendTopK(nil, 2, []model.Answer{{Group: 1, Score: 2}}),
		AppendFetch(nil, 2, []model.GroupID{1}),
		AppendSums(nil, map[model.GroupID]int64{1: 2}),
		AppendAttach(nil, AttachReq{Query: 1, Algo: "mint", SQL: "x"}),
		AppendHistoric(nil, HistoricReq{K: 1, Window: 1, Agg: model.AggAvg, Algo: "tja"}),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, _, err := DecodeTopK(b); return err },
		func(b []byte) error { _, _, err := DecodeFetch(b); return err },
		func(b []byte) error { _, err := DecodeSums(b); return err },
		func(b []byte) error { _, err := DecodeAttach(b); return err },
		func(b []byte) error { _, err := DecodeHistoric(b); return err },
	}
	for i, valid := range valids {
		if err := decoders[i](valid); err != nil {
			t.Fatalf("codec %d rejected its own output: %v", i, err)
		}
		for cut := 0; cut < len(valid); cut++ {
			if err := decoders[i](valid[:cut]); err == nil {
				t.Fatalf("codec %d: truncation at %d accepted", i, cut)
			}
		}
		if err := decoders[i](append(append([]byte(nil), valid...), 0xFF)); err == nil {
			t.Fatalf("codec %d: trailing byte accepted", i)
		}
	}
}

// TestFixed64RoundTrip pins the wire fixed-point against the model's
// quantization: every centi-quantized value a shard can produce must
// round-trip the socket losslessly — the root of the byte-identity
// guarantee for remote deployments.
func TestFixed64RoundTrip(t *testing.T) {
	for _, v := range []model.Value{0, 0.01, -0.01, 55.25, -273.15, 1e7, -1e7} {
		q := model.Quantize(v)
		if got := unfixed64(fixed64(q)); got != q {
			t.Fatalf("value %v: %v != %v after wire round-trip", v, got, q)
		}
	}
}

// TestStatsRowCodec: the envelope — the stamped storage block and counters
// row leading every reply — round-trips exactly (energies to the bit, an
// empty PerKind as the empty map stats.Collect builds) in one canonical
// form, hands back the reply's own payload behind it, and the decoder
// refuses unordered or repeated kinds, truncation and a non-boolean
// checkpoint flag. The row's label does not cross.
func TestStatsRowCodec(t *testing.T) {
	block := storage.StoreStats{Dir: "/data/shard-1", Nodes: 250, Segments: 1, Bytes: 1 << 33, LastEpoch: 70000, HasEpoch: true, Err: "disk full"}
	for _, tc := range []struct {
		name string
		row  stats.RunStats
	}{
		{"empty PerKind", stats.RunStats{Algorithm: "shard-0", Messages: 3}},
		{"nil PerKind, zero row", stats.RunStats{}},
		{"KindOther", stats.RunStats{Algorithm: "shard-1", PerKind: map[radio.MsgKind]int{radio.KindData: 10, radio.KindOther: 3}}},
		{"non-integral energies", stats.RunStats{
			Algorithm: "shard-2", Epochs: 9, Messages: 2425, Frames: 2611, TxBytes: 1 << 40, RxBytes: 61234, Drops: 17,
			EnergyUJ: 127852.6, EnergyMax: 0.1 + 0.2,
			PerKind: map[radio.MsgKind]int{radio.KindCtrl: 1, radio.KindData: 62000, radio.KindBeacon: 300},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.row
			want.Algorithm = ""
			if want.PerKind == nil {
				want.PerKind = map[radio.MsgKind]int{}
			}
			env := Envelope{Stamp: 1 << 40, Storage: block, Row: tc.row}
			b := AppendEnvelope(nil, env)
			got, rest, err := DecodeEnvelope(append(b, "payload"...))
			if err != nil {
				t.Fatal(err)
			}
			if string(rest) != "payload" {
				t.Fatalf("payload behind the envelope read as %q", rest)
			}
			if !reflect.DeepEqual(got.Row, want) || got.Storage != block || got.Stamp != env.Stamp {
				t.Fatalf("round trip:\ngot  %+v\nwant %+v %+v", got, want, block)
			}
			if math.Float64bits(got.Row.EnergyUJ) != math.Float64bits(want.EnergyUJ) || math.Float64bits(got.Row.EnergyMax) != math.Float64bits(want.EnergyMax) {
				t.Fatalf("energies not bit-exact: %v %v", got.Row.EnergyUJ, got.Row.EnergyMax)
			}
			if re := AppendEnvelope(nil, got); !bytes.Equal(re, b) {
				t.Fatalf("re-encode diverged: %x != %x", re, b)
			}
			for cut := 0; cut < len(b); cut++ {
				if _, _, err := DecodeEnvelope(b[:cut]); err == nil {
					t.Fatalf("truncation at %d of %d accepted", cut, len(b))
				}
			}
		})
	}

	// The row's kinds section is the envelope's tail: count, then (kind,
	// bytes) pairs.
	two := AppendEnvelope(nil, Envelope{Row: stats.RunStats{PerKind: map[radio.MsgKind]int{1: 5, 2: 7}}})
	head := two[:len(two)-4]
	if !bytes.Equal(two[len(two)-4:], []byte{1, 5, 2, 7}) {
		t.Fatalf("kinds section laid out as %x", two[len(two)-4:])
	}
	for name, kinds := range map[string][]byte{"unordered": {2, 7, 1, 5}, "repeated": {1, 5, 1, 7}} {
		if _, _, err := DecodeEnvelope(append(append([]byte(nil), head...), kinds...)); err == nil {
			t.Fatalf("%s kinds accepted", name)
		}
	}
	if _, _, err := DecodeEnvelope(append(append([]byte(nil), head...), 1, 0x85, 0x00, 2, 7)); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
	flag := AppendEnvelope(nil, Envelope{})
	flag[2+2+5] = 2 // dir, error, stamp, three counts, last epoch: then checkpointed
	if _, _, err := DecodeEnvelope(flag); err == nil {
		t.Fatal("checkpointed flag 2 accepted")
	}
}
