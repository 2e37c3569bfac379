// Package wire is the TCP shard transport of a federated KSpot deployment:
// a shard in another process. A shard process (kspotd -serve-shard) wraps
// its local shard in a Server; the coordinator process drives every
// shard through a Client — to the engine's Scheduler one more shard behind
// the EpochRound contract an in-process engine.Deployment implements, the
// very call a Server answers its MsgEpochRound with.
//
// The protocol is a length-prefixed framed RPC over one TCP connection:
//
//	frame   := len(u32) seq(u64) type(u8) payload
//	len     counts seq+type+payload (9 ≤ len ≤ 9+MaxPayload)
//
// all integers little-endian, matching the model codec. The first frame on
// a connection must be a Hello carrying a magic, the protocol version, the
// shard identity (scenario name, shard index/count, node count) and the
// session's live attachments; the server verifies the identity against its
// own deployment, attaches what it does not hold and answers Welcome, so a
// version-skewed or misdeployed peer fails the handshake instead of
// corrupting an epoch stream.
//
// Requests are at-most-once: the client stamps a monotone per-session
// sequence number on every call, has one call in flight at a time and
// retries the *same* sequence on timeout or reconnect; the server replays
// the cached reply when the session's last executed sequence arrives
// again and refuses any lower one. That is what makes per-connection
// retry/timeout/backoff — and the deterministic frame-level faults package
// wiretest injects on the server's side of the socket — safe: a sense is
// charged and an acquisition sweep runs exactly once per sequence number
// no matter how many frames the socket loses, duplicates or delays, so a
// federated run over lossy sockets stays byte-identical to the in-process
// run.
//
// A whole federated epoch (sense + every shared-acquisition group) is ONE
// MsgEpochRound round trip whose readings cross in a roster-positional
// encoding (groups and epochs as runs, values as deltas) instead of keyed
// reading records. See round.go.
//
// There is one protocol and no feature negotiation: both ends ship from
// this repository, so an incompatible change bumps Version and a skewed
// peer is refused at the handshake with an error naming both versions.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Magic opens every handshake payload ("KSPW", little-endian).
	Magic uint32 = 0x5750534B
	// Version is the protocol version; peers must match exactly. It is the
	// only compatibility mechanism: any change a peer of the previous
	// version would misread bumps it. Version 10 makes a historic
	// execution stateless: no execution id in the historic, topk, fetch
	// and sums payloads, a fetch that names its window, and no release
	// message; a version-9 peer would misread all four payloads and every
	// message type after them.
	Version uint16 = 10
	// MaxPayload bounds a frame's payload. The largest legitimate frame is
	// an epoch-round reply (a few bytes per sensor node per group), so
	// 1 MiB is far beyond scale-100k split into shards, while a garbage
	// length prefix is rejected before any allocation.
	MaxPayload = 1 << 20

	frameHeaderSize  = 4 + 8 + 1             // len + seq + type
	helloFixedSize   = 4 + 2 + 2 + 2 + 2 + 8 // magic, version, shard, shards, nodes, nonce
	attachMinSize    = 4 + 2 + 2             // query id, empty algorithm and SQL
	welcomeFixedSize = 4 + 2 + 2 + 2         // magic, version, shard, nodes
)

// MsgType tags a frame.
type MsgType uint8

// Frame types. Requests are client→server, replies server→client. Every
// reply's payload — and the Welcome, after the shard's name — opens with
// the shard's Envelope (its counters row and storage block, stamped).
// Type 0 is no message.
const (
	_                  MsgType = iota
	MsgHello                   // handshake request: identity + version
	MsgWelcome                 // handshake reply: server identity
	MsgError                   // reply: application error (string payload)
	MsgAttach                  // attach a query: qid, algorithm, SQL text
	MsgAttached                // reply: qid
	MsgHistoric                // historic phase 1 (or a flat run): k, window, agg, algo
	MsgTopK                    // reply: node count, (group, s64 sum) records
	MsgFetch                   // historic phase 2, a targeted fetch: window, group ids
	MsgSums                    // reply: (group, s64 sum) records
	MsgClose                   // graceful session close
	MsgClosed                  // reply: acknowledged
	MsgEpochRound              // one epoch: epoch + every group's query id
	MsgEpochRoundReply         // reply: sense readings + every group's acquisition
	MsgSnapshot                // fetch one bounded chunk of the shard state: offset
	MsgSnapshotChunk           // reply: total size, offset, chunk bytes
	MsgRestore                 // push one bounded chunk of a shard state: total, offset, bytes
	MsgRestored                // reply: bytes received so far, applied flag
	MsgDetach                  // release an attached query (its group dissolved or widened): qid
	MsgDetached                // reply: qid
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgError:
		return "error"
	case MsgAttach:
		return "attach"
	case MsgAttached:
		return "attached"
	case MsgHistoric:
		return "historic"
	case MsgTopK:
		return "topk"
	case MsgFetch:
		return "fetch"
	case MsgSums:
		return "sums"
	case MsgClose:
		return "close"
	case MsgClosed:
		return "closed"
	case MsgEpochRound:
		return "epoch-round"
	case MsgEpochRoundReply:
		return "epoch-round-reply"
	case MsgSnapshot:
		return "snapshot"
	case MsgSnapshotChunk:
		return "snapshot-chunk"
	case MsgRestore:
		return "restore"
	case MsgRestored:
		return "restored"
	case MsgDetach:
		return "detach"
	case MsgDetached:
		return "detached"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// Frame is one protocol frame. Payload is owned by the decoder's caller.
type Frame struct {
	Seq     uint64
	Type    MsgType
	Payload []byte
}

// AppendFrame appends the wire form of f to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(9+len(f.Payload)))
	binary.LittleEndian.PutUint64(hdr[4:], f.Seq)
	hdr[12] = byte(f.Type)
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The payload aliases b. Truncated input
// returns io.ErrUnexpectedEOF; a length prefix below the fixed header or
// above MaxPayload is rejected before any payload is touched.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameHeaderSize {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(b[0:])
	if n < 9 {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n-9 > MaxPayload {
		return Frame{}, 0, fmt.Errorf("wire: frame payload %d exceeds %d", n-9, MaxPayload)
	}
	total := int(4 + n)
	if len(b) < total {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	f := Frame{
		Seq:     binary.LittleEndian.Uint64(b[4:]),
		Type:    MsgType(b[12]),
		Payload: b[frameHeaderSize:total],
	}
	return f, total, nil
}

// ReadFrame reads one frame from r, rejecting oversized length prefixes
// before allocating. The payload is freshly allocated.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n < 9 {
		return Frame{}, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n-9 > MaxPayload {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds %d", n-9, MaxPayload)
	}
	f := Frame{
		Seq:  binary.LittleEndian.Uint64(hdr[4:]),
		Type: MsgType(hdr[12]),
	}
	if n > 9 {
		f.Payload = make([]byte, n-9)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// WriteFrame writes one frame to w, reusing *buf as the encode buffer.
func WriteFrame(w io.Writer, buf *[]byte, f Frame) error {
	*buf = AppendFrame((*buf)[:0], f)
	_, err := w.Write(*buf)
	return err
}

// Hello is the handshake request: the client announces the protocol
// version and the deployment identity it expects on the far end. Nonce
// identifies the client session — a reconnect of the same session keeps
// its at-most-once replay state on the server, a new session resets it.
// Attachments are the session's live attachments in attach order: the
// server attaches each one it does not already hold, so a reconnect to a
// restarted shard process re-attaches what the dead one served.
type Hello struct {
	Version     uint16
	Shard       uint16 // shard index the client believes it is dialing
	Shards      uint16 // total shard count of the deployment
	Nodes       uint16 // sensor node count of this shard's sub-scenario
	Nonce       uint64
	Scenario    string // flat scenario name
	Attachments []AttachReq
}

// Welcome is the handshake reply: the server's own identity, and the
// shard's counters as the session finds them, so a fresh connection holds
// a row before its first call.
type Welcome struct {
	Version  uint16
	Shard    uint16
	Nodes    uint16
	Name     string // shard display name (panels, error tags, the row's label)
	Counters Envelope
}

// checkHandshakeHead verifies the magic and version that open both
// handshake payloads. The version is checked before anything behind it is
// parsed — another version may lay the rest out differently — and the
// error states both versions, so a skewed deployment is diagnosable from
// either end's log. msg names the payload, self the end decoding it.
func checkHandshakeHead(b []byte, msg, self string) error {
	if len(b) < 6 {
		return io.ErrUnexpectedEOF
	}
	if magic := binary.LittleEndian.Uint32(b[0:]); magic != Magic {
		return fmt.Errorf("wire: bad handshake magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != Version {
		return fmt.Errorf("wire: %s carries protocol version %d, %s speaks %d", msg, v, self, Version)
	}
	return nil
}

// AppendHello appends the wire form of h: the fixed head, the scenario
// name, then a uvarint count of attachments, each in AppendAttach's form.
func AppendHello(dst []byte, h Hello) []byte {
	var buf [helloFixedSize]byte
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint16(buf[4:], h.Version)
	binary.LittleEndian.PutUint16(buf[6:], h.Shard)
	binary.LittleEndian.PutUint16(buf[8:], h.Shards)
	binary.LittleEndian.PutUint16(buf[10:], h.Nodes)
	binary.LittleEndian.PutUint64(buf[12:], h.Nonce)
	dst = appendUvarint(appendString(append(dst, buf[:]...), h.Scenario), uint64(len(h.Attachments)))
	for _, a := range h.Attachments {
		dst = AppendAttach(dst, a)
	}
	return dst
}

// DecodeHello decodes a handshake request, rejecting bad magic, a skewed
// version, truncation and trailing garbage.
func DecodeHello(b []byte) (Hello, error) {
	if err := checkHandshakeHead(b, "hello", "server"); err != nil {
		return Hello{}, err
	}
	if len(b) < helloFixedSize {
		return Hello{}, io.ErrUnexpectedEOF
	}
	h := Hello{
		Version: binary.LittleEndian.Uint16(b[4:]),
		Shard:   binary.LittleEndian.Uint16(b[6:]),
		Shards:  binary.LittleEndian.Uint16(b[8:]),
		Nodes:   binary.LittleEndian.Uint16(b[10:]),
		Nonce:   binary.LittleEndian.Uint64(b[12:]),
	}
	var err error
	if h.Scenario, b, err = decodeString(b[helloFixedSize:]); err != nil {
		return Hello{}, err
	}
	n, b, err := decodeUvarint(b)
	if err != nil {
		return Hello{}, err
	}
	if n > uint64(len(b))/attachMinSize {
		return Hello{}, io.ErrUnexpectedEOF
	}
	if n > 0 {
		h.Attachments = make([]AttachReq, n)
	}
	for i := range h.Attachments {
		if h.Attachments[i], b, err = decodeAttach(b); err != nil {
			return Hello{}, err
		}
	}
	if len(b) != 0 {
		return Hello{}, fmt.Errorf("wire: %d trailing bytes after hello", len(b))
	}
	return h, nil
}

// AppendWelcome appends the wire form of w.
func AppendWelcome(dst []byte, w Welcome) []byte {
	var buf [welcomeFixedSize]byte
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint16(buf[4:], w.Version)
	binary.LittleEndian.PutUint16(buf[6:], w.Shard)
	binary.LittleEndian.PutUint16(buf[8:], w.Nodes)
	dst = append(dst, buf[:]...)
	return AppendEnvelope(appendString(dst, w.Name), w.Counters)
}

// DecodeWelcome decodes a handshake reply, with DecodeHello's strictness.
func DecodeWelcome(b []byte) (Welcome, error) {
	if err := checkHandshakeHead(b, "welcome", "client"); err != nil {
		return Welcome{}, err
	}
	if len(b) < welcomeFixedSize {
		return Welcome{}, io.ErrUnexpectedEOF
	}
	w := Welcome{
		Version: binary.LittleEndian.Uint16(b[4:]),
		Shard:   binary.LittleEndian.Uint16(b[6:]),
		Nodes:   binary.LittleEndian.Uint16(b[8:]),
	}
	var err error
	if w.Name, b, err = decodeString(b[welcomeFixedSize:]); err != nil {
		return Welcome{}, err
	}
	if w.Counters, b, err = DecodeEnvelope(b); err != nil {
		return Welcome{}, err
	}
	if len(b) != 0 {
		return Welcome{}, fmt.Errorf("wire: %d trailing bytes after welcome", len(b))
	}
	return w, nil
}

// appendString appends a u16-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
	dst = append(dst, n[:]...)
	return append(dst, s...)
}

// decodeString decodes a u16-length-prefixed string from the front of b.
func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", b, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b[0:]))
	if len(b) < 2+n {
		return "", b, io.ErrUnexpectedEOF
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
