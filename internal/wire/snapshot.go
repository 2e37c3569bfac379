package wire

// Snapshot/restore payload codecs. A shard's state — the
// storage.ShardState bytes: the last epochs' readings per node, epoch
// cursor, per-node energy — can
// exceed a frame, so both directions move it in bounded chunks:
//
//	MsgSnapshot      req:  offset u32
//	MsgSnapshotChunk rep:  total u32 | offset u32 | data
//	MsgRestore       req:  total u32 | offset u32 | data
//	MsgRestored      rep:  received u32 | applied u8
//
// Snapshot chunks are served from a state image the server pins at offset
// 0 and drops after serving the final byte, so a multi-chunk snapshot is
// consistent even while epochs keep committing. Restore buffers chunks
// until the final byte arrives, then decodes and applies atomically —
// applied=1 on the last reply. Chunks must arrive in order (offset =
// bytes received so far); the at-most-once layer makes retries of either
// direction safe.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// SnapshotChunkSize bounds one chunk's data bytes, comfortably under
// MaxPayload with the chunk header.
const SnapshotChunkSize = 1 << 18

// SnapshotReq asks for the chunk starting at Offset.
type SnapshotReq struct {
	Offset uint32
}

// SnapshotChunk is one bounded slice of the pinned state image.
type SnapshotChunk struct {
	Total  uint32
	Offset uint32
	Data   []byte
}

// RestoreChunk is one bounded slice of a state image being pushed.
type RestoreChunk struct {
	Total  uint32
	Offset uint32
	Data   []byte
}

// RestoredReply acknowledges a restore chunk.
type RestoredReply struct {
	Received uint32
	Applied  bool
}

// AppendSnapshotReq appends the wire form of r.
func AppendSnapshotReq(dst []byte, r SnapshotReq) []byte {
	return binary.LittleEndian.AppendUint32(dst, r.Offset)
}

// DecodeSnapshotReq decodes a snapshot request.
func DecodeSnapshotReq(b []byte) (SnapshotReq, error) {
	if len(b) != 4 {
		return SnapshotReq{}, fmt.Errorf("wire: snapshot request is %d bytes, want 4", len(b))
	}
	return SnapshotReq{Offset: binary.LittleEndian.Uint32(b)}, nil
}

// appendChunk appends the shared total|offset|data chunk form.
func appendChunk(dst []byte, total, offset uint32, data []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, total)
	dst = binary.LittleEndian.AppendUint32(dst, offset)
	return append(dst, data...)
}

// decodeChunk decodes the shared chunk form. The data aliases b.
func decodeChunk(b []byte) (total, offset uint32, data []byte, err error) {
	if len(b) < 8 {
		return 0, 0, nil, io.ErrUnexpectedEOF
	}
	total = binary.LittleEndian.Uint32(b)
	offset = binary.LittleEndian.Uint32(b[4:])
	data = b[8:]
	if len(data) > SnapshotChunkSize {
		return 0, 0, nil, fmt.Errorf("wire: chunk data %d exceeds %d", len(data), SnapshotChunkSize)
	}
	if uint64(offset)+uint64(len(data)) > uint64(total) {
		return 0, 0, nil, fmt.Errorf("wire: chunk [%d,%d) overruns total %d", offset, int(offset)+len(data), total)
	}
	return total, offset, data, nil
}

// AppendSnapshotChunk appends the wire form of c.
func AppendSnapshotChunk(dst []byte, c SnapshotChunk) []byte {
	return appendChunk(dst, c.Total, c.Offset, c.Data)
}

// DecodeSnapshotChunk decodes a snapshot chunk; Data aliases b.
func DecodeSnapshotChunk(b []byte) (SnapshotChunk, error) {
	total, off, data, err := decodeChunk(b)
	if err != nil {
		return SnapshotChunk{}, err
	}
	return SnapshotChunk{Total: total, Offset: off, Data: data}, nil
}

// AppendRestoreChunk appends the wire form of c.
func AppendRestoreChunk(dst []byte, c RestoreChunk) []byte {
	return appendChunk(dst, c.Total, c.Offset, c.Data)
}

// DecodeRestoreChunk decodes a restore chunk; Data aliases b.
func DecodeRestoreChunk(b []byte) (RestoreChunk, error) {
	total, off, data, err := decodeChunk(b)
	if err != nil {
		return RestoreChunk{}, err
	}
	return RestoreChunk{Total: total, Offset: off, Data: data}, nil
}

// AppendRestored appends the wire form of r.
func AppendRestored(dst []byte, r RestoredReply) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, r.Received)
	if r.Applied {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeRestored decodes a restore acknowledgement.
func DecodeRestored(b []byte) (RestoredReply, error) {
	if len(b) != 5 {
		return RestoredReply{}, fmt.Errorf("wire: restored reply is %d bytes, want 5", len(b))
	}
	if b[4] > 1 {
		return RestoredReply{}, fmt.Errorf("wire: restored applied flag %d", b[4])
	}
	return RestoredReply{Received: binary.LittleEndian.Uint32(b), Applied: b[4] == 1}, nil
}
