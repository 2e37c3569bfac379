package storage

// Store is one shard's durable historic tier: a Window per sensor node,
// fed every committed sense epoch. With a data directory it also owns one
// append-only Log, shard.log, whose record is one whole epoch — the
// readings of every node that sensed it:
//
//	kind u8 | epoch u32 | count u32 | (node u16, value s64)×count
//
// nodes strictly ascending, values in the model codec's fixed64 quantized
// form (s64 centi-units, what shard snapshots carry). The encoding is
// canonical and enforced on decode. With an empty directory the store is
// memory-backed — the default, byte-identical in every answer.
//
// Opening a store on a directory that already holds a log is recovery:
// the log's clean records replay into fresh windows (the torn tail
// truncates, see log.go) and the cursor resumes at the last whole epoch.
// An epoch is one CRC'd record, so a crash leaves it recorded for every
// node or for none, and the coordinator's retried round re-records it.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"kspot/internal/model"
)

// Store is safe for concurrent use; the wire server records epochs and
// serves snapshots from different calls.
type Store struct {
	mu       sync.Mutex
	dir      string // "" = memory-backed
	capacity int
	windows  map[model.NodeID]*Window
	roster   []model.NodeID // the windows' keys, ascending
	log      *Log           // nil = memory-backed
	rec      []byte         // epoch-batch scratch
	cursor   model.Epoch
	hasCur   bool
	err      error // first durable-tier failure, sticky
}

// DefaultStoreWindow is the per-node capacity of the durable tier: deep
// enough for every historic window the scenarios pose, shallow enough that
// a mote-sized flash could hold it.
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

// OpenStore opens the durable tier. dir == "" selects the memory backend;
// otherwise the directory is created if needed and an existing log is
// recovered.
func OpenStore(dir string, capacity int) (*Store, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: store.capacity: must be >= 1, got %d", capacity)
	}
	s := &Store{
		dir:      dir,
		capacity: capacity,
		windows:  make(map[model.NodeID]*Window),
	}
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

// replay folds one recovered epoch batch into the windows.
func (s *Store) replay(p []byte) error {
	e, entries, err := decodeBatch(p)
	if err != nil {
		return err
	}
	for ; len(entries) > 0; entries = entries[batchEntrySize:] {
		n, v := batchEntry(entries)
		if err := s.window(n).Push(e, model.FromFixed(model.FixedPoint(v))); err != nil {
			return fmt.Errorf("storage: replaying node %d: %w", n, err)
		}
	}
	if !s.hasCur || e > s.cursor {
		s.cursor, s.hasCur = e, true
	}
	return nil
}

// window returns node's window, seating it in the roster on first touch.
// Caller holds s.mu (or is recovery, before the store is shared).
func (s *Store) window(node model.NodeID) *Window {
	w, ok := s.windows[node]
	if !ok {
		w, _ = NewWindow(s.capacity) // capacity was validated by OpenStore
		s.windows[node] = w
		i, _ := slices.BinarySearch(s.roster, node)
		s.roster = slices.Insert(s.roster, i, node)
	}
	return w
}

// RecordReadings implements engine.ReadingsRecorder: it folds one
// committed sense epoch into the windows and, in disk mode, appends it to
// the log as one record and one write. Replays of an epoch at or below the
// cursor are skipped — that is what makes a restarted shard's retried
// epoch round idempotent against what the dead process already persisted.
// A log failure sticks in Stats rather than poisoning the sense
// path (a full disk must not change answers): the windows keep recording,
// the log takes no more appends.
func (s *Store) RecordReadings(e model.Epoch, readings map[model.NodeID]model.Reading) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasCur && e <= s.cursor {
		return
	}
	// Steady state finds every node seated; a first reading joins the
	// roster in id order so the walk below stays ascending.
	var fresh []model.NodeID
	for n := range readings {
		if _, ok := s.windows[n]; !ok {
			fresh = append(fresh, n)
		}
	}
	slices.Sort(fresh)
	for _, n := range fresh {
		s.window(n)
	}
	s.rec = beginBatch(s.rec[:0], e)
	for _, n := range s.roster {
		r, ok := readings[n]
		if !ok {
			continue
		}
		if s.windows[n].Push(e, r.Value) != nil {
			continue // restored ahead of the cursor by a snapshot
		}
		if s.log != nil {
			s.rec = appendBatchEntry(s.rec, n, int64(model.ToFixed(r.Value)))
		}
	}
	s.cursor, s.hasCur = e, true
	if s.log != nil {
		s.log.Append(endBatch(s.rec))
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
	return s.cursor, s.hasCur
}

// StoreStats is the storage block of the System Panel and /stats.
// Segments counts the log files (1 in disk mode, 0 in memory mode), Bytes
// their size including buffered appends; Err is the first durable-tier
// failure — a shard showing one has stopped persisting.
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
	st := StoreStats{Dir: s.dir, Nodes: len(s.windows), LastEpoch: s.cursor, HasEpoch: s.hasCur}
	if s.log != nil {
		st.Segments, st.Bytes = 1, s.log.Size()
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	return st
}

// State serializes the store for a shard snapshot: every node's buffered
// window plus the epoch cursor, with each node's energy drawn from
// energyOf (µJ, bit-exact across the wire). Nodes ascend, so the encoding
// is canonical.
func (s *Store) State(energyOf func(model.NodeID) float64) ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardState{Epoch: s.cursor, HasEpoch: s.hasCur}
	for _, n := range s.roster {
		w := s.windows[n]
		ns := NodeState{Node: n}
		if energyOf != nil {
			ns.EnergyUJ = energyOf(n)
		}
		for i := 0; i < w.Len(); i++ {
			e, v, _ := w.At(i)
			ns.Epochs = append(ns.Epochs, e)
			ns.Values = append(ns.Values, int64(model.ToFixed(v)))
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// Restore replaces the store's contents with a snapshot's: each node's
// window rebuilds from the snapshot records, the cursor advances to the
// snapshot's, and in disk mode the log is rewritten to match. Restore
// never regresses the cursor — a shard that already sensed past the
// snapshot keeps its lead.
func (s *Store) Restore(st ShardState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ns := range st.Nodes {
		w := s.window(ns.Node)
		w.Clear()
		for i := range ns.Epochs {
			if err := w.Push(ns.Epochs[i], model.FromFixed(model.FixedPoint(ns.Values[i]))); err != nil {
				return fmt.Errorf("storage: restoring node %d: %w", ns.Node, err)
			}
		}
	}
	if st.HasEpoch && (!s.hasCur || st.Epoch > s.cursor) {
		s.cursor, s.hasCur = st.Epoch, true
	}
	return s.rewrite()
}

// Reset empties the durable tier for a new coordinator session: every
// window clears, the log rewrites to empty and the cursor rewinds, so the
// new session records from its own epoch 0.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.windows {
		w.Clear()
	}
	s.cursor, s.hasCur = 0, false
	return s.rewrite()
}

// rewrite makes the log equal the windows: the log is replaced (temp file
// + rename) by the windows transposed back into epoch batches, oldest
// epoch first. Caller holds s.mu.
func (s *Store) rewrite() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Rewrite(func() {
		next := make([]int, len(s.roster)) // per node: the oldest reading not yet written
		for {
			var e model.Epoch
			found := false
			for i, n := range s.roster {
				if we, _, err := s.windows[n].At(next[i]); err == nil && (!found || we < e) {
					e, found = we, true
				}
			}
			if !found {
				return
			}
			s.rec = beginBatch(s.rec[:0], e)
			for i, n := range s.roster {
				if we, v, err := s.windows[n].At(next[i]); err == nil && we == e {
					s.rec = appendBatchEntry(s.rec, n, int64(model.ToFixed(v)))
					next[i]++
				}
			}
			s.log.Append(endBatch(s.rec))
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
