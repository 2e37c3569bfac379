package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/stats"
	"kspot/internal/storage"
)

// FuzzFrameDecode drives arbitrary bytes through the framing layer and
// every payload codec behind it. The invariant is total robustness: a
// hostile or corrupt peer can make a decode fail, never panic, never
// allocate past MaxPayload — and anything that does decode must re-encode
// to the identical frame (the codecs have one canonical form).
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Seq: 1, Type: MsgHello, Payload: AppendHello(nil, Hello{Version: Version, Scenario: "demo"})}))
	f.Add(AppendFrame(nil, Frame{Seq: 2, Type: MsgEpochRound, Payload: AppendEpochRound(nil, EpochRoundReq{Epoch: 7, Queries: []uint32{1, 2}})}))
	f.Add(AppendFrame(nil, Frame{Seq: 3, Type: MsgSums, Payload: AppendSums(AppendEnvelope(nil, fuzzEnvelope), map[model.GroupID]int64{1: 2, 65534: -1 << 40})}))
	f.Add(AppendFrame(nil, Frame{Seq: 5, Type: MsgDetach, Payload: AppendU32(nil, 7)}))
	f.Add(AppendFrame(nil, Frame{Seq: 6, Type: MsgDetached, Payload: AppendU32(AppendEnvelope(nil, fuzzEnvelope), 7)}))
	f.Add(AppendFrame(nil, Frame{Seq: 4, Type: MsgTopK, Payload: AppendTopK(AppendEnvelope(nil, fuzzEnvelope), 9, []model.Answer{{Group: 3, Score: -4.5}, {Group: 0, Score: 1e9}})}))
	f.Add(AppendFrame(nil, Frame{Seq: 10, Type: MsgHistoric, Payload: AppendHistoric(nil, HistoricReq{K: 16, Window: 65535, Agg: model.AggAvg, Algo: "tja"})}))
	f.Add(AppendFrame(nil, Frame{Seq: 11, Type: MsgFetch, Payload: AppendFetch(nil, 16, []model.GroupID{0, 7, 15})}))
	f.Add(AppendHistoric(nil, HistoricReq{K: 1, Window: 1, Agg: model.AggSum, Algo: "tput"}))
	f.Add(AppendFetch(nil, 65535, []model.GroupID{65534}))
	f.Add(AppendTopK(nil, 250, []model.Answer{{Group: 1, Score: 2}}))
	f.Add(AppendSums(nil, map[model.GroupID]int64{5: -123456789}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(AppendFrame(nil, Frame{Seq: 8, Type: MsgError, Payload: append(AppendEnvelope(nil, Envelope{Stamp: 300}), "wire: stale sequence"...)}))
	f.Add(AppendFrame(nil, Frame{Seq: 9, Type: MsgWelcome, Payload: AppendWelcome(nil, Welcome{Version: Version, Shard: 1, Nodes: 8, Name: "shard-1", Counters: fuzzEnvelope})}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			// Rejected input must also reject (not hang or panic) on the
			// streaming path.
			if _, rerr := ReadFrame(bytes.NewReader(data)); rerr == nil {
				t.Fatalf("DecodeFrame rejected (%v) but ReadFrame accepted", err)
			}
			return
		}
		if n < frameHeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if len(fr.Payload) > MaxPayload {
			t.Fatalf("oversized payload %d decoded", len(fr.Payload))
		}
		if re := AppendFrame(nil, fr); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch: %x != %x", re, data[:n])
		}
		// Feed the payload to each structured codec; none may panic.
		DecodeHello(fr.Payload)
		DecodeWelcome(fr.Payload)
		DecodeAttach(fr.Payload)
		DecodeU32(fr.Payload)
		DecodeChunk(fr.Payload)
		DecodeHistoric(fr.Payload)
		DecodeTopK(fr.Payload)
		DecodeFetch(fr.Payload)
		DecodeSums(fr.Payload)
		DecodeEpochRound(fr.Payload)
		DecodeEpochRoundReply(fr.Payload, fuzzRoster)
		DecodeRosterReadings(fr.Payload, fuzzRoster, 0)
		// Every reply opens with an envelope: what decodes re-encodes to
		// the bytes it consumed.
		if env, rest, err := DecodeEnvelope(fr.Payload); err == nil {
			if re := AppendEnvelope(nil, env); !bytes.Equal(re, fr.Payload[:len(fr.Payload)-len(rest)]) {
				t.Fatalf("envelope re-encode mismatch: %x != %x", re, fr.Payload[:len(fr.Payload)-len(rest)])
			}
		}
	})
}

// fuzzEnvelope is a stamped envelope whose counters row has three kinds
// and non-integral energies (neither has an exact binary form): the seeds'
// envelope section.
var fuzzEnvelope = Envelope{
	Stamp:   70000,
	Storage: storage.StoreStats{Dir: "/data/shard-1", Nodes: 8, Segments: 1, Bytes: 4096, LastEpoch: 7, HasEpoch: true},
	Row: stats.RunStats{
		Epochs: 7, Messages: 2425, Frames: 2611, TxBytes: 62150, RxBytes: 61032, Drops: 3,
		EnergyUJ: 127852.6, EnergyMax: 0.1 + 0.2,
		PerKind: map[radio.MsgKind]int{radio.KindData: 60000, radio.KindBeacon: 2000, radio.KindOther: 150},
	},
}

// fuzzRoster is the fixed positional frame of reference for the
// epoch-round fuzz targets — gaps and a >255 id exercise the bitmap and
// varint paths.
var fuzzRoster = []model.NodeID{1, 2, 3, 5, 8, 13, 21, 300}

// FuzzEpochRoundDecode drives arbitrary bytes through the batched
// epoch-round codecs against a fixed roster, and through the envelope that
// leads the round reply's frame payload. The invariant is the
// canonical-form one the retry layer depends on (a replayed reply must be
// byte-identical): any input that decodes — request, reply, bare roster
// readings block or envelope — must re-encode to exactly the bytes
// consumed, and no input may panic or over-allocate.
func FuzzEpochRoundDecode(f *testing.F) {
	f.Add(AppendEpochRound(nil, EpochRoundReq{Epoch: 7, Queries: []uint32{1, 2, 3}}))
	readings := map[model.NodeID]model.Reading{
		1:   {Node: 1, Group: 1, Epoch: 7, Value: 42.25},
		8:   {Node: 8, Group: 2, Epoch: 7, Value: -3.5},
		300: {Node: 300, Group: 9, Epoch: 9, Value: 1e4},
	}
	if seed, err := AppendEpochRoundReply(nil, fuzzRoster, EpochRoundReply{
		Epoch:    7,
		Readings: readings,
		Groups: []RoundGroup{
			{Answers: []model.Answer{{Group: 1, Score: 10}, {Group: 2, Score: -4.5}}},
			{Err: "query gone"},
			{Answers: []model.Answer{{Group: 3, Score: 1}}, Override: readings},
		},
	}); err == nil {
		f.Add(seed)
	}
	f.Add(AppendEnvelope(nil, fuzzEnvelope))
	if block, err := AppendRosterReadings(nil, fuzzRoster, 3, readings); err == nil {
		f.Add(block)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})
	// Run-coded blocks at the body's reference epoch 9: the full roster in
	// two groups under one epoch run, then one block for each way a block
	// can fail to be canonical, bare and as the sense block of a reply
	// with no groups.
	full := make(map[model.NodeID]model.Reading, len(fuzzRoster))
	for i, id := range fuzzRoster {
		full[id] = model.Reading{Node: id, Group: model.GroupID(1 + i/4), Epoch: 9, Value: model.Value(i) - 2.5}
	}
	if block, err := AppendRosterReadings(nil, fuzzRoster, 9, full); err == nil {
		f.Add(block)
	}
	for _, h := range []string{
		"03" + "02" + "0100" + "0100" + "01" + "0001" + "0000", // adjacent equal group runs
		"03" + "01" + "0101" + "02" + "0000" + "0000" + "0000", // adjacent equal epoch runs
		"03" + "01" + "0102" + "01" + "0001" + "0000",          // group runs past the popcount
		"03" + "01" + "0100" + "01" + "0001" + "0000",          // group runs short of it
		"03" + "01" + "0101" + "01" + "0000" + "0000",          // epoch runs short of it
		"01" + "01" + "8100" + "01" + "0000" + "00",            // non-minimal uvarint
		"01" + "01" + "80800400" + "01" + "0000" + "00",        // group 65 536
		"01" + "01" + "0100" + "01" + "1300" + "00",            // epoch −1
		"01" + "01" + "0100" + "01" + "eeffffff1f00" + "00",    // epoch MaxUint32 + 1
	} {
		block, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(block)
		f.Add(append(AppendEpoch(nil, 9), append(block, 0, 0)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeEpochRound(data); err == nil {
			if re := AppendEpochRound(nil, req); !bytes.Equal(re, data) {
				t.Fatalf("request re-encode mismatch: %x != %x", re, data)
			}
		}
		if rep, err := DecodeEpochRoundReply(data, fuzzRoster); err == nil {
			re, err := AppendEpochRoundReply(nil, fuzzRoster, rep)
			if err != nil {
				t.Fatalf("decoded reply refused to re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("reply re-encode mismatch: %x != %x", re, data)
			}
		}
		if env, rest, err := DecodeEnvelope(data); err == nil {
			if re := AppendEnvelope(nil, env); !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("envelope re-encode mismatch: %x != %x", re, data[:len(data)-len(rest)])
			}
		}
		if m, rest, err := DecodeRosterReadings(data, fuzzRoster, 9); err == nil {
			re, err := AppendRosterReadings(nil, fuzzRoster, 9, m)
			if err != nil {
				t.Fatalf("decoded readings refused to re-encode: %v", err)
			}
			if !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("readings re-encode mismatch: %x != %x", re, data[:len(data)-len(rest)])
			}
		}
	})
}

// FuzzHandshake round-trips arbitrary bytes through the hello and welcome
// codecs: any input that decodes must re-encode canonically (so it carries
// this protocol version), and version-skewed or truncated handshakes must
// be rejected rather than crash the decoder.
func FuzzHandshake(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: Version, Shard: 1, Shards: 4, Nodes: 250, Nonce: 99, Scenario: "scale-1000"}))
	f.Add(AppendHello(nil, Hello{Version: Version, Nonce: 7, Scenario: "demo", Attachments: []AttachReq{
		{Query: 3, Algo: "mint", SQL: "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"}, {Query: 5, SQL: "SELECT"}}}))
	f.Add(AppendHello(nil, Hello{Version: Version - 1, Scenario: ""}))
	f.Add([]byte("KSPW"))
	f.Add(AppendWelcome(nil, Welcome{Version: Version, Shard: 1, Nodes: 8, Name: "shard-1", Counters: fuzzEnvelope}))
	f.Add(AppendWelcome(nil, Welcome{Version: Version}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHello(data); err == nil {
			if h.Version != Version {
				t.Fatalf("hello of protocol version %d decoded", h.Version)
			}
			if re := AppendHello(nil, h); !bytes.Equal(re, data) {
				t.Fatalf("hello re-encode mismatch: %x != %x", re, data)
			}
		}
		if w, err := DecodeWelcome(data); err == nil {
			if w.Version != Version {
				t.Fatalf("welcome of protocol version %d decoded", w.Version)
			}
			if re := AppendWelcome(nil, w); !bytes.Equal(re, data) {
				t.Fatalf("welcome re-encode mismatch: %x != %x", re, data)
			}
		}
	})
}
