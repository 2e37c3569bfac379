package wire

// Payload codecs for the RPC messages (the epoch round's are in round.go).
// Snapshot answers reuse the model wire codec verbatim — the same 6-byte
// record the radio tier ships — and readings its fixed-point quantization,
// so crossing the socket is exactly as lossy as crossing the air, i.e. not
// at all: every Value on a shard is already centi-quantized (operators rank
// with model.Quantize, sensing quantizes at the source), so the fixed-point
// round trip is the identity. Historic records carry their local sums as
// signed 64-bit centi-units instead: a window sum is the one quantity in
// the system that can outgrow the 32-bit answer encoding, and the federated
// threshold round needs it integer-exact.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/stats"
	"kspot/internal/storage"
)

// fixed64 converts a centi-quantized Value to exact s64 centi-units (the
// 64-bit analogue of model.ToFixed, without its int32 saturation).
func fixed64(v model.Value) int64 {
	return int64(math.Round(float64(v) * 100))
}

// unfixed64 is the inverse of fixed64.
func unfixed64(s int64) model.Value { return model.Value(s) / 100 }

// AttachReq asks the shard to plan and attach a query under an id.
type AttachReq struct {
	Query uint32
	Algo  string // algorithm name ("" = router default), registry names
	SQL   string
}

// AppendAttach appends the wire form of r.
func AppendAttach(dst []byte, r AttachReq) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[0:], r.Query)
	dst = append(dst, buf[:]...)
	dst = appendString(dst, r.Algo)
	return appendString(dst, r.SQL)
}

// DecodeAttach decodes an attach request.
func DecodeAttach(b []byte) (AttachReq, error) {
	r, b, err := decodeAttach(b)
	if err != nil {
		return AttachReq{}, err
	}
	if len(b) != 0 {
		return AttachReq{}, fmt.Errorf("wire: %d trailing bytes after attach", len(b))
	}
	return r, nil
}

// decodeAttach decodes an attach request from the front of b, returning
// the rest.
func decodeAttach(b []byte) (AttachReq, []byte, error) {
	if len(b) < 4 {
		return AttachReq{}, nil, io.ErrUnexpectedEOF
	}
	r := AttachReq{Query: binary.LittleEndian.Uint32(b[0:])}
	var err error
	if r.Algo, b, err = decodeString(b[4:]); err != nil {
		return AttachReq{}, nil, err
	}
	if r.SQL, b, err = decodeString(b); err != nil {
		return AttachReq{}, nil, err
	}
	return r, b, nil
}

// AppendEpoch appends a bare epoch (the head of an epoch-round payload).
func AppendEpoch(dst []byte, e model.Epoch) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(e))
	return append(dst, buf[:]...)
}

// AppendU32 appends a bare u32 payload (attached/released acks).
func AppendU32(dst []byte, v uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[0:], v)
	return append(dst, buf[:]...)
}

// DecodeU32 decodes a bare u32 payload.
func DecodeU32(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("wire: payload is %d bytes, want 4", len(b))
	}
	return binary.LittleEndian.Uint32(b), nil
}

// HistoricReq runs phase 1 of a historic execution (or a whole flat run)
// on the shard's buffered windows.
type HistoricReq struct {
	K      int // ranking size (the merger's ShipK; the query's K when flat), at most Window
	Window int
	Agg    model.AggKind
	Algo   string
}

// historicFixedSize is a historic request ahead of its algorithm name: k,
// window, aggregate.
const historicFixedSize = 2 + 2 + 1

// AppendHistoric appends the wire form of r.
func AppendHistoric(dst []byte, r HistoricReq) []byte {
	var buf [historicFixedSize]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(r.K))
	binary.LittleEndian.PutUint16(buf[2:], uint16(r.Window))
	buf[4] = byte(r.Agg)
	dst = append(dst, buf[:]...)
	return appendString(dst, r.Algo)
}

// DecodeHistoric decodes a historic request.
func DecodeHistoric(b []byte) (HistoricReq, error) {
	if len(b) < historicFixedSize {
		return HistoricReq{}, io.ErrUnexpectedEOF
	}
	r := HistoricReq{
		K:      int(binary.LittleEndian.Uint16(b[0:])),
		Window: int(binary.LittleEndian.Uint16(b[2:])),
		Agg:    model.AggKind(b[4]),
	}
	var err error
	b = b[historicFixedSize:]
	if r.Algo, b, err = decodeString(b); err != nil {
		return HistoricReq{}, err
	}
	if len(b) != 0 {
		return HistoricReq{}, fmt.Errorf("wire: %d trailing bytes after historic", len(b))
	}
	return r, nil
}

// sumRecordSize is one historic (group, s64 centi-sum) record.
const sumRecordSize = 10

// AppendTopK appends a historic reply: the count of shard nodes holding a
// buffered window and the ranked answers with exact s64 sums.
func AppendTopK(dst []byte, nodes int, answers []model.Answer) []byte {
	var buf [6]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(nodes))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(answers)))
	dst = append(dst, buf[:]...)
	for _, a := range answers {
		var rec [sumRecordSize]byte
		binary.LittleEndian.PutUint16(rec[0:], uint16(a.Group))
		binary.LittleEndian.PutUint64(rec[2:], uint64(fixed64(a.Score)))
		dst = append(dst, rec[:]...)
	}
	return dst
}

// DecodeTopK decodes a historic reply.
func DecodeTopK(b []byte) (nodes int, answers []model.Answer, err error) {
	if len(b) < 6 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	nodes = int(binary.LittleEndian.Uint32(b[0:]))
	n := int(binary.LittleEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) != n*sumRecordSize {
		return 0, nil, fmt.Errorf("wire: topk payload %d bytes for %d records", len(b), n)
	}
	answers = make([]model.Answer, 0, n)
	for i := 0; i < n; i++ {
		answers = append(answers, model.Answer{
			Group: model.GroupID(binary.LittleEndian.Uint16(b[0:])),
			Score: unfixed64(int64(binary.LittleEndian.Uint64(b[2:]))),
		})
		b = b[sumRecordSize:]
	}
	return nodes, answers, nil
}

// AppendFetch appends a phase-2 targeted fetch request: the window and the
// instants (group ids) to sum within it.
func AppendFetch(dst []byte, window int, ids []model.GroupID) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(window))
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(ids)))
	dst = append(dst, buf[:]...)
	for _, id := range ids {
		var rec [2]byte
		binary.LittleEndian.PutUint16(rec[:], uint16(id))
		dst = append(dst, rec[:]...)
	}
	return dst
}

// DecodeFetch decodes a fetch request.
func DecodeFetch(b []byte) (window int, ids []model.GroupID, err error) {
	if len(b) < 4 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	window = int(binary.LittleEndian.Uint16(b[0:]))
	n := int(binary.LittleEndian.Uint16(b[2:]))
	b = b[4:]
	if len(b) != n*2 {
		return 0, nil, fmt.Errorf("wire: fetch payload %d bytes for %d ids", len(b), n)
	}
	ids = make([]model.GroupID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, model.GroupID(binary.LittleEndian.Uint16(b[2*i:])))
	}
	return window, ids, nil
}

// AppendSums appends a fetch reply: (group, s64 centi-sum) records in
// ascending group order (canonical).
func AppendSums(dst []byte, sums map[model.GroupID]int64) []byte {
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(sums)))
	dst = append(dst, buf[:]...)
	ids := make([]model.GroupID, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		var rec [sumRecordSize]byte
		binary.LittleEndian.PutUint16(rec[0:], uint16(id))
		binary.LittleEndian.PutUint64(rec[2:], uint64(sums[id]))
		dst = append(dst, rec[:]...)
	}
	return dst
}

// DecodeSums decodes a fetch reply.
func DecodeSums(b []byte) (map[model.GroupID]int64, error) {
	if len(b) < 2 {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b[0:]))
	b = b[2:]
	if len(b) != n*sumRecordSize {
		return nil, fmt.Errorf("wire: sums payload %d bytes for %d records", len(b), n)
	}
	sums := make(map[model.GroupID]int64, n)
	for i := 0; i < n; i++ {
		id := model.GroupID(binary.LittleEndian.Uint16(b[0:]))
		sums[id] = int64(binary.LittleEndian.Uint64(b[2:]))
		b = b[sumRecordSize:]
	}
	return sums, nil
}

// Envelope is what every reply frame and every Welcome carries ahead of
// its own payload: the shard's durable-tier block and counters row as they
// stood when the reply was framed, stamped with the number of calls the
// server had executed by then. A replayed reply keeps its stamp, so within
// one connection the higher stamp is the newer row; a restarted shard
// restarts both its stamps and its radio counters, so rows from different
// connections are not compared (see Client.Stats).
type Envelope struct {
	Stamp   uint64
	Storage storage.StoreStats
	// Row is the counters row. Its Algorithm label stays behind: the
	// Welcome's Name names the shard, and the client fills it in.
	Row stats.RunStats
}

// AppendEnvelope appends the wire form of e:
//
//	storage dir, storage error                     u16-length string each
//	stamp, storage nodes, segments, bytes,         uvarint each
//	last checkpoint epoch, checkpointed (0 or 1),
//	row epochs, messages, frames, tx, rx bytes,
//	drops
//	row EnergyUJ, EnergyMax                        float64 bits, u64
//	row per-kind tx bytes                          uvarint count, then
//	                                               (kind u8, bytes uvarint),
//	                                               kinds strictly ascending
//
// The energies cross as their IEEE bits, so a federated sum is bit-exact.
// Correct and Recall are a query's columns, not a shard's, and stay behind.
func AppendEnvelope(dst []byte, e Envelope) []byte {
	st, r := e.Storage, e.Row
	dst = appendString(appendString(dst, st.Dir), st.Err)
	checkpointed := uint64(0)
	if st.HasEpoch {
		checkpointed = 1
	}
	for _, v := range [...]uint64{e.Stamp, uint64(st.Nodes), uint64(st.Segments), uint64(st.Bytes), uint64(st.LastEpoch), checkpointed,
		uint64(r.Epochs), uint64(r.Messages), uint64(r.Frames), uint64(r.TxBytes), uint64(r.RxBytes), uint64(r.Drops)} {
		dst = appendUvarint(dst, v)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.EnergyUJ))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.EnergyMax))
	var buf [8]radio.MsgKind // a shard transmits at most KindOther+1 kinds
	kinds := buf[:0]
	for k := range r.PerKind {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	dst = appendUvarint(dst, uint64(len(kinds)))
	for _, k := range kinds {
		dst = appendUvarint(append(dst, byte(k)), uint64(r.PerKind[k]))
	}
	return dst
}

// envelopeMaxSize bounds the bytes AppendEnvelope appends for e.
func envelopeMaxSize(e Envelope) int {
	const varints = 12 + 1 // the twelve counters and the kind count
	return 2 + len(e.Storage.Dir) + 2 + len(e.Storage.Err) + varints*binary.MaxVarintLen64 + 16 +
		len(e.Row.PerKind)*(1+binary.MaxVarintLen64)
}

// DecodeEnvelope decodes an envelope from the front of b, returning the
// rest (the reply's own payload). Strict: minimal varints, an epoch that
// fits its type, a boolean checkpoint flag, kinds strictly ascending.
// PerKind is never nil, as stats.Collect builds it.
func DecodeEnvelope(b []byte) (Envelope, []byte, error) {
	var e Envelope
	st, r := &e.Storage, &e.Row
	var err error
	if st.Dir, b, err = decodeString(b); err != nil {
		return Envelope{}, nil, err
	}
	if st.Err, b, err = decodeString(b); err != nil {
		return Envelope{}, nil, err
	}
	var u [12]uint64
	for i := range u {
		if u[i], b, err = decodeUvarint(b); err != nil {
			return Envelope{}, nil, err
		}
	}
	if u[4] > math.MaxUint32 || u[5] > 1 {
		return Envelope{}, nil, fmt.Errorf("wire: envelope checkpoint epoch %d, flag %d", u[4], u[5])
	}
	e.Stamp, st.Nodes, st.Segments, st.Bytes, st.LastEpoch, st.HasEpoch = u[0], int(u[1]), int(u[2]), int64(u[3]), model.Epoch(u[4]), u[5] == 1
	r.Epochs, r.Messages, r.Frames, r.TxBytes, r.RxBytes, r.Drops = int(u[6]), int(u[7]), int(u[8]), int(u[9]), int(u[10]), int(u[11])
	if len(b) < 16 {
		return Envelope{}, nil, io.ErrUnexpectedEOF
	}
	r.EnergyUJ = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
	r.EnergyMax = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	n, b, err := decodeUvarint(b[16:])
	if err != nil {
		return Envelope{}, nil, err
	}
	if n > uint64(len(b))/2 { // every kind takes at least two bytes
		return Envelope{}, nil, io.ErrUnexpectedEOF
	}
	r.PerKind = make(map[radio.MsgKind]int, n)
	last := -1
	for i := uint64(0); i < n; i++ {
		if len(b) < 1 {
			return Envelope{}, nil, io.ErrUnexpectedEOF
		}
		k := int(b[0])
		if k <= last {
			return Envelope{}, nil, fmt.Errorf("wire: envelope kind %d after kind %d", k, last)
		}
		last = k
		var v uint64
		if v, b, err = decodeUvarint(b[1:]); err != nil {
			return Envelope{}, nil, err
		}
		r.PerKind[radio.MsgKind(k)] = int(v)
	}
	return e, b, nil
}
