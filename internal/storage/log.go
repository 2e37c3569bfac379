package storage

// Log is the one append-only file format under a -data-dir: the shard's
// durable tier, shard.log, whose payloads are epoch records and, on a
// served shard, node records (record.go). A snapshot image is a Log image
// too (image.go).
//
// A log is an 8-byte header (magic "KSLG", u32 version) followed by
// records framed u32 len | payload | crc32(payload). The version names the
// payloads' form: version 2 is the run-coded, frame-of-reference records
// of record.go, and a log or image of any other version — version 1's
// fixed 10-byte entries among them — is refused, never misread. Opening
// replays the records front to back and truncates the torn tail: the
// first record that is short, longer than maxLogRecord, or fails its CRC
// ends the clean prefix and everything from there on is discarded — a
// mid-write crash costs exactly the record being written. A file that
// does not start with the header is refused, not truncated to nothing.
//
// Appends collect in memory; Flush hands them to the kernel in one write,
// which is the durability point: it survives kill -9, not power loss (no
// fsync). The log forgets nothing on its own — Rewrite is the only way a
// record ever leaves it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	logMagic      = "KSLG"
	logVersion    = 2
	logHeaderSize = len(logMagic) + 4
	// logFrameSize is the framing around each payload: len u32 + crc u32.
	logFrameSize = 8
	// maxLogRecord caps a record's payload; a longer length prefix can
	// only be garbage (a 65 536-node record of either kind is under 1 MiB).
	maxLogRecord = 1 << 24
)

// Log is an open log file positioned for appending.
type Log struct {
	path string
	f    *os.File
	w    io.Writer // f; tests wrap it to count writes
	buf  []byte    // framed appends not yet flushed
	size int64     // bytes on disk plus buffered
	err  error     // first write failure, sticky: the tail may be torn, so later appends would be unreachable
}

func appendLogHeader(dst []byte) []byte {
	dst = append(dst, logMagic...)
	return binary.LittleEndian.AppendUint32(dst, logVersion)
}

func appendLogRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// replayLog walks a log image, handing each clean record's payload to
// replay (which must not retain it), and returns the length of the clean
// prefix. The torn tail is not an error; a foreign header or a payload
// replay rejects is.
func replayLog(b []byte, replay func(payload []byte) error) (int, error) {
	if len(b) < logHeaderSize && bytes.HasPrefix(appendLogHeader(nil), b) {
		return 0, nil // empty, or torn while the header was being written
	}
	if len(b) < logHeaderSize || string(b[:len(logMagic)]) != logMagic {
		return 0, fmt.Errorf("not a kspot log (header % x)", b[:min(len(b), logHeaderSize)])
	}
	if v := binary.LittleEndian.Uint32(b[len(logMagic):]); v != logVersion {
		return 0, fmt.Errorf("log format version %d, this build reads %d", v, logVersion)
	}
	clean := logHeaderSize
	for {
		rest := b[clean:]
		if len(rest) < logFrameSize {
			return clean, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > maxLogRecord || uint32(len(rest)-logFrameSize) < n {
			return clean, nil
		}
		payload := rest[4 : 4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return clean, nil
		}
		if err := replay(payload); err != nil {
			return clean, fmt.Errorf("record at byte %d: %w", clean, err)
		}
		clean += logFrameSize + int(n)
	}
}

// OpenLog opens (or creates) the log at path, replays its clean records
// through replay and truncates any torn tail; appends continue after the
// clean prefix.
func OpenLog(path string, replay func(payload []byte) error) (*Log, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: reading log %s: %w", path, err)
	}
	clean, err := replayLog(raw, replay)
	if err != nil {
		return nil, fmt.Errorf("storage: log %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening log %s: %w", path, err)
	}
	if clean < len(raw) {
		if err := f.Truncate(int64(clean)); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: truncating torn tail of %s: %w", path, err)
		}
	}
	l := &Log{path: path, f: f, w: f, size: int64(clean)}
	if clean == 0 {
		l.buf = appendLogHeader(l.buf)
		l.size = int64(logHeaderSize)
	}
	return l, nil
}

// Append frames one record into the pending buffer; Flush makes it
// durable. On a failed log it is a no-op.
func (l *Log) Append(payload []byte) {
	if l.err != nil {
		return
	}
	if len(payload) > maxLogRecord {
		l.err = fmt.Errorf("storage: log %s: record of %d bytes exceeds %d", l.path, len(payload), maxLogRecord)
		return
	}
	l.buf = appendLogRecord(l.buf, payload)
	l.size += int64(logFrameSize + len(payload))
}

// Flush hands the pending appends to the kernel in one write — the
// durability point. The first failure sticks: every later Flush returns it.
func (l *Log) Flush() error {
	if l.err == nil && len(l.buf) > 0 {
		if _, err := l.w.Write(l.buf); err != nil {
			l.err = fmt.Errorf("storage: writing log %s: %w", l.path, err)
		}
		l.buf = l.buf[:0]
	}
	return l.err
}

// Rewrite atomically replaces the log's contents with the records fill
// appends: they are written to a temp file beside the log which is then
// renamed over it, so a crash leaves the old log or the new one, never a
// mix. Appends pending from before the rewrite are superseded with it.
func (l *Log) Rewrite(fill func()) error {
	if l.err != nil {
		return l.err
	}
	tmp, err := os.OpenFile(l.path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err == nil {
		l.f.Close()
		l.f, l.w = tmp, tmp
		l.buf, l.size = appendLogHeader(l.buf[:0]), int64(logHeaderSize)
		fill()
		if l.Flush() != nil {
			return l.err
		}
		err = os.Rename(tmp.Name(), l.path)
	}
	if err != nil {
		l.err = fmt.Errorf("storage: rewriting log %s: %w", l.path, err)
	}
	return l.err
}

// Size returns the log's byte size including pending appends.
func (l *Log) Size() int64 { return l.size }

// Close flushes and closes the log.
func (l *Log) Close() error {
	ferr := l.Flush()
	if cerr := l.f.Close(); ferr == nil && cerr != nil {
		return fmt.Errorf("storage: closing log %s: %w", l.path, cerr)
	}
	return ferr
}
