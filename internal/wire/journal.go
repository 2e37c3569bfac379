package wire

// journal is the shard server's session meta log: the second file of a
// -data-dir next to the storage segments. Where segments persist WHAT the
// shard buffered, the journal persists WHO it was serving — the
// coordinator session nonce, every attached query (id, algorithm, SQL) and
// its release, and a per-epoch energy checkpoint — so a kill -9'd shard process
// restarted on the same data dir resumes the SAME session: the
// reconnecting coordinator's unchanged nonce matches instead of resetting
// the session, its queries are already attached (replayed from the
// journal through the normal attach path), and the network's energy
// ledger picks up where the dead process last flushed.
//
// The format is the segment discipline applied to variable-size records:
// u32 len | payload | crc32(payload), replayed front to back with the
// torn tail truncated. Payloads are kind-tagged.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"

	"kspot/internal/model"
)

// Journal record kinds.
const (
	jNonce  = 1 // u64 nonce — a new coordinator session began
	jAttach = 2 // u32 qid | str algo | str sql — a query attached
	jEnergy = 3 // u32 epoch | u32 count | (u16 node, u64 f64bits µJ)* — epoch checkpoint
	jDetach = 4 // u32 qid — an attached query was released
)

// journalState is what replaying a journal yields.
type journalState struct {
	nonce       uint64
	attaches    []AttachReq // still attached, in attach order
	energyEpoch model.Epoch
	hasEnergy   bool
	energy      map[model.NodeID]float64
}

// journal appends session meta records to one file.
type journal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	buf  []byte
}

// appendJournalRecord appends one framed record.
func appendJournalRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// replayJournal decodes the clean record prefix of b, returning the
// payloads and the clean byte length (the torn tail starts there).
func replayJournal(b []byte) ([][]byte, int) {
	var out [][]byte
	clean := 0
	for {
		rest := b[clean:]
		if len(rest) < 8 {
			return out, clean
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n > MaxPayload || len(rest) < 8+n {
			return out, clean
		}
		payload := rest[4 : 4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return out, clean
		}
		out = append(out, payload)
		clean += 8 + n
	}
}

// openJournal opens (or creates) the journal, recovers its clean state
// and truncates any torn tail.
func openJournal(path string) (*journal, journalState, error) {
	st := journalState{}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, st, fmt.Errorf("wire: reading journal %s: %w", path, err)
	}
	payloads, clean := replayJournal(raw)
	for _, p := range payloads {
		if len(p) == 0 {
			continue
		}
		switch p[0] {
		case jNonce:
			if len(p) == 9 {
				st.nonce = binary.LittleEndian.Uint64(p[1:])
				// A nonce record begins a session: earlier session state is void.
				st.attaches = nil
				st.hasEnergy = false
				st.energy = nil
			}
		case jAttach:
			if len(p) < 5 {
				continue
			}
			qid := binary.LittleEndian.Uint32(p[1:])
			algo, rest, err := decodeString(p[5:])
			if err != nil {
				continue
			}
			sql, rest, err := decodeString(rest)
			if err != nil || len(rest) != 0 {
				continue
			}
			st.attaches = append(st.attaches, AttachReq{Query: qid, Algo: algo, SQL: sql})
		case jDetach:
			if len(p) != 5 {
				continue
			}
			qid := binary.LittleEndian.Uint32(p[1:])
			st.attaches = slices.DeleteFunc(st.attaches, func(a AttachReq) bool { return a.Query == qid })
		case jEnergy:
			if len(p) < 9 {
				continue
			}
			epoch := model.Epoch(binary.LittleEndian.Uint32(p[1:]))
			n := int(binary.LittleEndian.Uint32(p[5:]))
			if len(p) != 9+n*10 {
				continue
			}
			m := make(map[model.NodeID]float64, n)
			for i := 0; i < n; i++ {
				off := 9 + i*10
				m[model.NodeID(binary.LittleEndian.Uint16(p[off:]))] =
					math.Float64frombits(binary.LittleEndian.Uint64(p[off+2:]))
			}
			st.energyEpoch, st.hasEnergy, st.energy = epoch, true, m
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, st, fmt.Errorf("wire: opening journal %s: %w", path, err)
	}
	if clean < len(raw) {
		if err := f.Truncate(int64(clean)); err != nil {
			f.Close()
			return nil, st, fmt.Errorf("wire: truncating journal %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(clean), 0); err != nil {
		f.Close()
		return nil, st, err
	}
	return &journal{path: path, f: f, w: bufio.NewWriter(f)}, st, nil
}

// write frames and appends one payload, flushing to the kernel (the
// durability point a kill -9 cannot revoke).
func (j *journal) write(payload []byte) error {
	j.buf = appendJournalRecord(j.buf[:0], payload)
	if _, err := j.w.Write(j.buf); err != nil {
		return fmt.Errorf("wire: appending journal %s: %w", j.path, err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("wire: flushing journal %s: %w", j.path, err)
	}
	return nil
}

// Nonce records a new coordinator session.
func (j *journal) Nonce(nonce uint64) error {
	var p [9]byte
	p[0] = jNonce
	binary.LittleEndian.PutUint64(p[1:], nonce)
	return j.write(p[:])
}

// Attach records one attached query.
func (j *journal) Attach(req AttachReq) error {
	p := []byte{jAttach}
	p = binary.LittleEndian.AppendUint32(p, req.Query)
	p = appendString(p, req.Algo)
	p = appendString(p, req.SQL)
	return j.write(p)
}

// Detach records one released query: a restart replays only the attaches
// no later detach names.
func (j *journal) Detach(qid uint32) error {
	return j.write(binary.LittleEndian.AppendUint32([]byte{jDetach}, qid))
}

// Energy records an epoch's per-node ledger checkpoint, nodes ascending.
func (j *journal) Energy(e model.Epoch, nodes []model.NodeID, uj func(model.NodeID) float64) error {
	p := []byte{jEnergy}
	p = binary.LittleEndian.AppendUint32(p, uint32(e))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(nodes)))
	for _, n := range nodes {
		p = binary.LittleEndian.AppendUint16(p, uint16(n))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(uj(n)))
	}
	return j.write(p)
}

// Close flushes and closes the journal.
func (j *journal) Close() error {
	ferr := j.w.Flush()
	cerr := j.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
