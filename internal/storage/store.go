// Package storage is a KSpot shard's durable historic tier, standing in for
// the flash the paper's motes index with MicroHash. Store keeps a shard's
// last epochs as epoch records — in memory and, given a data directory, in
// one append-only Log, the one file format that directory holds — and a
// snapshot image is a Log image of those same records (image.go).
// BufferSeries materializes the windows a historic query runs over.
package storage

// Store is one shard's durable historic tier. Its only form of history is
// the epoch record — the readings of every node that sensed one epoch:
//
//	kind u8 | epoch u32 | count u32 | (node u16, value s64)×count
//
// nodes strictly ascending, values in the model codec's fixed64 quantized
// form (s64 centi-units). The encoding is canonical and enforced on
// decode. The store keeps its last capacity records in a ring; with a data
// directory every record is also appended to shard.log, and the ring's slot
// is the very bytes appended. With an empty directory the store is
// memory-backed, byte-identical in every answer.
//
// Opening a store on a directory that already holds a log is recovery: the
// log's clean records are validated, seat the roster and set the cursor,
// and the last capacity of them stay in the ring (the torn tail truncates,
// see log.go). An epoch is one CRC'd record, so a crash leaves it recorded
// for every node or for none, and the coordinator's retried round
// re-records it.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"kspot/internal/model"
)

// Store is safe for concurrent use; the wire server records epochs and
// serves snapshots from different calls.
type Store struct {
	mu     sync.Mutex
	dir    string // "" = memory-backed
	log    *Log   // nil = memory-backed
	seated []bool // by node id: on the roster
	roster []model.NodeID
	ring   [][]byte // the last len(ring) epoch records, oldest at ring[head]
	head   int
	n      int   // records in the ring; the newest one's epoch is the cursor
	err    error // first durable-tier failure, sticky
	behind error // the last epoch refused for being below the cursor; cleared when a record lands
}

// DefaultStoreWindow is the durable tier's capacity in epochs: deep enough
// for every historic window the scenarios pose, shallow enough that a
// mote-sized flash could hold it.
const DefaultStoreWindow = 64

const (
	logName = "shard.log"

	recEpoch        = 1         // the only record kind: one epoch batch
	batchHeaderSize = 1 + 4 + 4 // kind | epoch | count
	batchEntrySize  = 2 + 8     // node | value
)

// beginBatch starts an epoch-batch payload; appendBatchEntry adds nodes in
// ascending order and endBatch patches the count in.
func beginBatch(dst []byte, e model.Epoch) []byte {
	dst = append(dst, recEpoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e))
	return binary.LittleEndian.AppendUint32(dst, 0)
}

func appendBatchEntry(dst []byte, n model.NodeID, v int64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(n))
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func endBatch(rec []byte) []byte {
	binary.LittleEndian.PutUint32(rec[5:], uint32((len(rec)-batchHeaderSize)/batchEntrySize))
	return rec
}

// batchEntry reads the entry at the front of a batch's entries.
func batchEntry(entries []byte) (model.NodeID, int64) {
	return model.NodeID(binary.LittleEndian.Uint16(entries)), int64(binary.LittleEndian.Uint64(entries[2:]))
}

// decodeBatch validates one epoch-batch payload — known kind, length
// matching its count, nodes strictly ascending — and returns its epoch and
// its entries (batchEntrySize bytes each).
func decodeBatch(p []byte) (model.Epoch, []byte, error) {
	if len(p) < batchHeaderSize || p[0] != recEpoch {
		return 0, nil, fmt.Errorf("storage: epoch batch header invalid")
	}
	e := model.Epoch(binary.LittleEndian.Uint32(p[1:]))
	entries := p[batchHeaderSize:]
	if count := binary.LittleEndian.Uint32(p[5:]); uint64(count)*batchEntrySize != uint64(len(entries)) {
		return 0, nil, fmt.Errorf("storage: epoch %d batch counts %d nodes in %d bytes", e, count, len(entries))
	}
	for off := batchEntrySize; off < len(entries); off += batchEntrySize {
		if prev, n := binary.LittleEndian.Uint16(entries[off-batchEntrySize:]), binary.LittleEndian.Uint16(entries[off:]); n <= prev {
			return 0, nil, fmt.Errorf("storage: epoch %d batch node %d not ascending", e, n)
		}
	}
	return e, entries, nil
}

// OpenStore opens the durable tier, keeping the last capacity epochs.
// dir == "" selects the memory backend; otherwise the directory is created
// if needed and an existing log is recovered.
func OpenStore(dir string, capacity int) (*Store, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: store.capacity: must be >= 1, got %d", capacity)
	}
	s := &Store{dir: dir, ring: make([][]byte, capacity)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: store dir %s: %w", dir, err)
	}
	if legacy, _ := filepath.Glob(filepath.Join(dir, "node-*.seg")); len(legacy) > 0 {
		return nil, fmt.Errorf("storage: store dir %s holds %d per-node segment files (%s, ...) from a build older than the shard log; this build reads only %s",
			dir, len(legacy), filepath.Base(legacy[0]), logName)
	}
	log, err := OpenLog(filepath.Join(dir, logName), s.replay)
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// replay validates one recovered epoch record, seats its nodes, advances
// the cursor and keeps a copy in the ring.
func (s *Store) replay(p []byte) error {
	e, entries, err := decodeBatch(p)
	if err != nil {
		return err
	}
	if cur, ok := s.cursor(); ok && e <= cur {
		return fmt.Errorf("storage: epoch %d record not after epoch %d", e, cur)
	}
	var fresh []model.NodeID
	for ; len(entries) > 0; entries = entries[batchEntrySize:] {
		if n, _ := batchEntry(entries); !s.onRoster(n) {
			fresh = append(fresh, n)
		}
	}
	s.seat(fresh)
	i := s.push()
	s.ring[i] = append(s.ring[i][:0], p...)
	return nil
}

func (s *Store) onRoster(n model.NodeID) bool { return int(n) < len(s.seated) && s.seated[n] }

// seat puts fresh nodes (none on the roster yet) on the roster and re-sizes
// every ring slot to hold a whole-roster record, so the steady state encodes
// in place. Caller holds s.mu (or is recovery, before the store is shared).
func (s *Store) seat(fresh []model.NodeID) {
	if len(fresh) == 0 {
		return
	}
	if need := int(slices.Max(fresh)) + 1; need > len(s.seated) {
		s.seated = append(s.seated, make([]bool, need-len(s.seated))...)
	}
	for _, n := range fresh {
		s.seated[n] = true
	}
	s.roster = append(s.roster, fresh...)
	slices.Sort(s.roster)
	size := batchHeaderSize + len(s.roster)*batchEntrySize
	slots := make([]byte, size*len(s.ring))
	for i, rec := range s.ring {
		s.ring[i] = append(slots[i*size:i*size:(i+1)*size], rec...)
	}
}

// push claims the ring slot for the next record, evicting the oldest when
// the ring is full, and returns its index. Caller holds s.mu.
func (s *Store) push() int {
	i := (s.head + s.n) % len(s.ring)
	if s.n == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
	} else {
		s.n++
	}
	return i
}

// record returns the i-th oldest record in the ring. Caller holds s.mu.
func (s *Store) record(i int) []byte { return s.ring[(s.head+i)%len(s.ring)] }

// cursor returns the newest record's epoch, the last recorded one; there
// is none while the ring is empty. Caller holds s.mu.
func (s *Store) cursor() (model.Epoch, bool) {
	if s.n == 0 {
		return 0, false
	}
	return epochOf(s.record(s.n - 1)), true
}

// RecordReadings implements engine.ReadingsRecorder: it encodes one
// committed sense epoch as a record into the ring and, in disk mode,
// appends that record to the log in one write. A replay of the cursor's
// own epoch is skipped — that is what makes a restarted shard's retried
// epoch round idempotent against what the dead process already persisted.
// An epoch below the cursor is no replay but a clock that went back (a
// local System reopened on its data dir starts at 0): it is not recorded
// either, and Stats reports it until the clock passes the cursor and a
// record lands again. A log failure sticks in Stats rather than poisoning
// the sense path (a full disk must not change answers): the ring keeps
// recording, the log takes no more appends.
func (s *Store) RecordReadings(e model.Epoch, readings map[model.NodeID]model.Reading) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.cursor(); ok && e <= cur {
		if e < cur {
			s.behind = fmt.Errorf("storage: epoch %d is behind the recorded epoch %d, not recorded", e, cur)
		}
		return
	}
	s.behind = nil
	// Steady state finds every node seated; a first reading joins the
	// roster in id order so the walk below stays ascending.
	var fresh []model.NodeID
	for n := range readings {
		if !s.onRoster(n) {
			fresh = append(fresh, n)
		}
	}
	s.seat(fresh)
	i := s.push()
	rec := beginBatch(s.ring[i][:0], e)
	for _, n := range s.roster {
		if r, ok := readings[n]; ok {
			rec = appendBatchEntry(rec, n, int64(model.ToFixed(r.Value)))
		}
	}
	s.ring[i] = endBatch(rec)
	if s.log != nil {
		s.log.Append(s.ring[i])
		s.fail(s.log.Flush())
	}
}

// fail records the first durable-tier failure. Caller holds s.mu.
func (s *Store) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Fail reports a failure of the data dir's other file — the shard
// server's session journal — so one place says the shard stopped
// persisting.
func (s *Store) Fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail(err)
}

// Cursor returns the last recorded epoch — the checkpoint the /stats
// storage block reports.
func (s *Store) Cursor() (model.Epoch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor()
}

// StoreStats is the storage block of the System Panel and /stats.
// Nodes is the roster size, Segments counts the log files (1 in disk mode,
// 0 in memory mode), Bytes their size including buffered appends; Err is
// the first durable-tier failure and, beside it, an epoch refused for
// being behind the cursor — a shard showing either is not persisting.
type StoreStats struct {
	Dir       string      `json:"dir,omitempty"`
	Nodes     int         `json:"nodes"`
	Segments  int         `json:"segments"`
	Bytes     int64       `json:"bytes"`
	LastEpoch model.Epoch `json:"last_checkpoint_epoch"`
	HasEpoch  bool        `json:"checkpointed"`
	Err       string      `json:"error,omitempty"`
}

// Stats snapshots the storage block.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{Dir: s.dir, Nodes: len(s.roster)}
	st.LastEpoch, st.HasEpoch = s.cursor()
	if s.log != nil {
		st.Segments, st.Bytes = 1, s.log.Size()
	}
	var errs []string
	for _, err := range []error{s.err, s.behind} {
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	st.Err = strings.Join(errs, "; ")
	return st
}

// Image serializes the store for a shard snapshot (image.go): the ring's
// records as they are, then the node record — every roster node with the
// µJ total ledger reads for it (in one call, index-aligned with the
// ascending roster) — at the cursor. Image decodes nothing.
func (s *Store) Image(ledger func(nodes []model.NodeID) []float64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := appendLogHeader(nil)
	for i := 0; i < s.n; i++ {
		img = appendLogRecord(img, s.record(i))
	}
	uj := ledger(s.roster)
	rows := make([]NodeEnergy, len(s.roster))
	for i, n := range s.roster {
		rows[i] = NodeEnergy{Node: n, UJ: uj[i]}
	}
	cur, _ := s.cursor()
	return appendNodeRecord(img, cur, rows)
}

// Restore overlays a snapshot image on the store and returns its node
// record, the ledger totals the caller resumes. Each image node's entries
// replace all of that node's entries and the other nodes' entries stay;
// every image node takes a roster seat; the last capacity epochs are
// kept; and in disk mode the log is rewritten to match. The overlay is also
// re-sharding's merge: restoring several sources' filtered images in turn
// unions them. The cursor never regresses: it becomes the newer of the
// store's and the image's. The records re-enter the ring through replay,
// the validation recovery uses; an image that breaks any rule of its form
// changes nothing.
func (s *Store) Restore(img []byte) ([]NodeEnergy, error) {
	im, err := decodeImage(img)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	incoming := make(map[model.NodeID]bool, len(im.nodes))
	var fresh []model.NodeID
	for _, r := range im.nodes {
		incoming[r.Node] = true
		if !s.onRoster(r.Node) {
			fresh = append(fresh, r.Node)
		}
	}
	s.seat(fresh)
	// Merge the ring's records with the image's, both epoch-ascending.
	var merged [][]byte
	for i, j := 0, 0; i < s.n || j < len(im.records); {
		var mine, theirs []byte // this epoch's record in the ring and in the image
		if i < s.n && (j == len(im.records) || epochOf(s.record(i)) <= epochOf(im.records[j])) {
			mine, i = s.record(i), i+1
		}
		if j < len(im.records) && (mine == nil || epochOf(im.records[j]) == epochOf(mine)) {
			theirs, j = im.records[j], j+1
		}
		merged = append(merged, s.overlay(mine, theirs, incoming))
	}
	s.head, s.n = 0, 0
	for _, rec := range merged[max(0, len(merged)-len(s.ring)):] {
		if err := s.replay(rec); err != nil {
			return nil, err
		}
	}
	return im.nodes, s.rewrite()
}

// overlay merges one epoch's records, either of which may be nil, in
// roster order: every entry of theirs (the image's) and those of mine (the
// store's) whose node the image does not bring. Caller holds s.mu, with
// every node of both seated.
func (s *Store) overlay(mine, theirs []byte, incoming map[model.NodeID]bool) []byte {
	rec := theirs
	if rec == nil {
		rec = mine
	}
	rec = beginBatch(nil, epochOf(rec))
	// Their entries; a nil record has none.
	a, b := mine[min(len(mine), batchHeaderSize):], theirs[min(len(theirs), batchHeaderSize):]
	for _, n := range s.roster {
		if len(b) > 0 && binary.LittleEndian.Uint16(b) == uint16(n) {
			rec, b = append(rec, b[:batchEntrySize]...), b[batchEntrySize:]
		}
		if len(a) > 0 && binary.LittleEndian.Uint16(a) == uint16(n) {
			if !incoming[n] {
				rec = append(rec, a[:batchEntrySize]...)
			}
			a = a[batchEntrySize:]
		}
	}
	return endBatch(rec)
}

// Reset empties the durable tier for a new coordinator session: the ring
// empties, the log rewrites to empty and the cursor rewinds, so the new
// session records from its own epoch 0. The roster stays.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.head, s.n = 0, 0
	return s.rewrite()
}

// rewrite makes the log equal the ring: the log is replaced (temp file +
// rename) by the ring's records, oldest first. Caller holds s.mu.
func (s *Store) rewrite() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Rewrite(func() {
		for i := 0; i < s.n; i++ {
			s.log.Append(s.record(i))
		}
	})
	s.fail(err)
	return err
}

// Close flushes and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	log := s.log
	s.log = nil
	return log.Close()
}
