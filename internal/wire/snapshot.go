package wire

// Snapshot/restore payload codecs. A shard's state — a storage snapshot
// image: the store's last epoch records as they are plus a node record of
// the roster's energy-ledger totals at the cursor — can exceed a frame, so
// both directions move it in bounded chunks:
//
//	MsgSnapshot      req:  offset u32 (AppendU32)
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

// Chunk is one bounded slice of a state image, in either direction: the
// pinned image a snapshot serves or an image a restore pushes.
type Chunk struct {
	Total  uint32
	Offset uint32
	Data   []byte
}

// RestoredReply acknowledges a restore chunk.
type RestoredReply struct {
	Received uint32
	Applied  bool
}

// AppendChunk appends the wire form of c: total u32 | offset u32 | data.
func AppendChunk(dst []byte, c Chunk) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, c.Total)
	dst = binary.LittleEndian.AppendUint32(dst, c.Offset)
	return append(dst, c.Data...)
}

// DecodeChunk decodes a chunk; Data aliases b.
func DecodeChunk(b []byte) (Chunk, error) {
	if len(b) < 8 {
		return Chunk{}, io.ErrUnexpectedEOF
	}
	c := Chunk{Total: binary.LittleEndian.Uint32(b), Offset: binary.LittleEndian.Uint32(b[4:]), Data: b[8:]}
	if len(c.Data) > SnapshotChunkSize {
		return Chunk{}, fmt.Errorf("wire: chunk data %d exceeds %d", len(c.Data), SnapshotChunkSize)
	}
	if uint64(c.Offset)+uint64(len(c.Data)) > uint64(c.Total) {
		return Chunk{}, fmt.Errorf("wire: chunk [%d,%d) overruns total %d", c.Offset, int(c.Offset)+len(c.Data), c.Total)
	}
	return c, nil
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
