// Package storage is a KSpot shard's durable historic tier, standing in for
// the flash the paper's motes index with MicroHash. Store keeps a shard's
// last epochs as epoch records — in memory and, given a data directory, in
// one append-only Log, the one file format that directory holds — and a
// snapshot image is a Log image of those same records (image.go).
// BufferSeries materializes the windows a historic query runs over.
package storage

// Store is one shard's durable historic tier. Its history is the epoch
// record (record.go): the readings of every node that sensed one epoch,
// its node set run-coded and its values fixed-width offsets from the
// record's minimum — about 2 bytes a node on a scale-1000 shard whose
// readings span a few thousand centi-units. The store keeps its last
// capacity records in a ring; with a data directory every record is also
// appended to shard.log, and the ring's slot is the very bytes appended.
// With an empty directory the store is memory-backed, byte-identical in
// every answer.
//
// A served shard also keeps its energy ledger in the store: after each
// epoch round it appends a node record (record.go: every roster node with
// its µJ total), and the last one is the ledger a restarted process
// resumes. A local store never writes one.
//
// Opening a store on a directory that already holds a log is recovery: the
// log's clean records are validated, seat the roster and set the cursor,
// the last capacity epoch records stay in the ring and the last node record
// is kept (the torn tail truncates, see log.go). An epoch is one CRC'd
// record, so a crash leaves it recorded for every node or for none, and the
// coordinator's retried round re-records it.

import (
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
	// energy is the last node record's rows, ascending by node: the ledger
	// a restarted served shard resumes. nil until the store keeps the
	// ledger (RecordEnergies, or a node record recovered from the log).
	energy []NodeEnergy
	// nodes and vals gather one epoch's readings in roster order for the
	// encoder; sized to the roster, so recording allocates nothing.
	nodes []model.NodeID
	vals  []int64
}

// DefaultStoreWindow is the durable tier's capacity in epochs: deep enough
// for every historic window the scenarios pose, shallow enough that a
// mote-sized flash could hold it.
const DefaultStoreWindow = 64

const logName = "shard.log"

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

// replay validates one recovered record. An epoch record seats its nodes
// run by run, advances the cursor and keeps a copy in the ring; a node
// record seats every node it names and becomes the kept ledger.
func (s *Store) replay(p []byte) error {
	if len(p) > 0 && p[0] == recNodes {
		_, rows, err := DecodeEnergies(p[1:])
		if err != nil {
			return err
		}
		s.keepEnergy(rows)
		return nil
	}
	r, err := decodeEpochRecord(p)
	if err != nil {
		return err
	}
	if cur, ok := s.cursor(); ok && r.epoch <= cur {
		return fmt.Errorf("storage: epoch %d record not after epoch %d", r.epoch, cur)
	}
	var fresh []model.NodeID
	for first, n := range r.set.runs {
		lo, hi := min(int(first), len(s.seated)), min(int(first)+n, len(s.seated))
		if hi-lo == n && !slices.Contains(s.seated[lo:hi], false) {
			continue // the steady state: the whole run is seated
		}
		for i := range n {
			if id := first + model.NodeID(i); !s.onRoster(id) {
				fresh = append(fresh, id)
			}
		}
	}
	s.seat(fresh)
	i := s.push()
	s.ring[i] = append(s.ring[i][:0], p...)
	return nil
}

// keepEnergy makes rows the kept ledger and seats every node they name.
// Caller holds s.mu (or is recovery).
func (s *Store) keepEnergy(rows []NodeEnergy) {
	var fresh []model.NodeID
	for _, r := range rows {
		if !s.onRoster(r.Node) {
			fresh = append(fresh, r.Node)
		}
	}
	s.seat(fresh)
	s.energy = append(make([]NodeEnergy, 0, len(rows)), rows...)
}

func (s *Store) onRoster(n model.NodeID) bool { return int(n) < len(s.seated) && s.seated[n] }

// seat puts fresh nodes (none on the roster yet) on the roster and re-sizes
// the gather scratch and every ring slot to hold the largest record the
// roster can make, so the steady state encodes in place. Caller holds s.mu (or is recovery, before the store is shared).
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
	s.nodes, s.vals = make([]model.NodeID, 0, len(s.roster)), make([]int64, 0, len(s.roster))
	size := maxEpochRecord(len(s.roster))
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
	s.gather(readings)
	if len(s.nodes) < len(readings) {
		// A reading of an unseated node joins the roster in id order, so
		// the gather stays ascending. The steady state never gets here.
		var fresh []model.NodeID
		for n := range readings {
			if !s.onRoster(n) {
				fresh = append(fresh, n)
			}
		}
		s.seat(fresh)
		s.gather(readings)
	}
	i := s.push()
	s.ring[i] = appendEpochRecord(s.ring[i][:0], e, s.nodes, s.vals)
	if s.log != nil {
		s.log.Append(s.ring[i])
		s.fail(s.log.Flush())
	}
}

// gather fills the scratch with the readings of roster nodes, in roster
// order. Caller holds s.mu.
func (s *Store) gather(readings map[model.NodeID]model.Reading) {
	s.nodes, s.vals = s.nodes[:0], s.vals[:0]
	for _, n := range s.roster {
		if r, ok := readings[n]; ok {
			s.nodes, s.vals = append(s.nodes, n), append(s.vals, int64(model.ToFixed(r.Value)))
		}
	}
}

// RecordEnergies appends a node record — rows, every roster node ascending
// with its µJ total, at the cursor — and keeps it as the ledger a restart
// resumes. A served shard calls it after every call that spends energy, so
// a kill -9 loses at most the call in flight. It is written whatever the
// clock says: a clock behind the cursor still spends energy. A failure
// sticks in Stats, like a failed epoch record.
func (s *Store) RecordEnergies(rows []NodeEnergy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keepEnergy(rows)
	if s.log != nil {
		cur, _ := s.cursor()
		s.log.Append(nodeRecord(cur, rows))
		s.fail(s.log.Flush())
	}
}

// Energies returns the kept ledger: the last node record's rows, nil when
// the store keeps none (a local store).
func (s *Store) Energies() []NodeEnergy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.energy)
}

// fail records the first durable-tier failure. Caller holds s.mu.
func (s *Store) fail(err error) {
	if s.err == nil {
		s.err = err
	}
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
// kept; a store that keeps the ledger takes the image's totals into it;
// and in disk mode the log is rewritten to match, ending with the node
// record when the store keeps one. The overlay is also
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
		merged = append(merged, overlay(mine, theirs, incoming))
	}
	s.head, s.n = 0, 0
	for _, rec := range merged[max(0, len(merged)-len(s.ring)):] {
		if err := s.replay(rec); err != nil {
			return nil, err
		}
	}
	if s.energy != nil {
		s.energy = overlayEnergies(s.energy, im.nodes)
	}
	return im.nodes, s.rewrite()
}

// overlayEnergies merges two ascending ledgers; theirs wins a node both
// name.
func overlayEnergies(mine, theirs []NodeEnergy) []NodeEnergy {
	out := make([]NodeEnergy, 0, len(mine)+len(theirs))
	for len(mine) > 0 || len(theirs) > 0 {
		switch {
		case len(theirs) == 0 || (len(mine) > 0 && mine[0].Node < theirs[0].Node):
			out, mine = append(out, mine[0]), mine[1:]
		default:
			if len(mine) > 0 && mine[0].Node == theirs[0].Node {
				mine = mine[1:]
			}
			out, theirs = append(out, theirs[0]), theirs[1:]
		}
	}
	return out
}

// overlay merges one epoch's records, either of which may be nil: every
// reading of theirs (the image's) and those of mine (the store's) whose
// node the image does not bring, ascending by node.
func overlay(mine, theirs []byte, incoming map[model.NodeID]bool) []byte {
	rec := theirs
	if rec == nil {
		rec = mine
	}
	an, av := readingsOf(mine)
	bn, bv := readingsOf(theirs)
	var nodes []model.NodeID
	var vals []int64
	for len(an) > 0 || len(bn) > 0 {
		if len(bn) > 0 && (len(an) == 0 || bn[0] <= an[0]) {
			nodes, vals, bn, bv = append(nodes, bn[0]), append(vals, bv[0]), bn[1:], bv[1:]
			continue
		}
		if !incoming[an[0]] {
			nodes, vals = append(nodes, an[0]), append(vals, av[0])
		}
		an, av = an[1:], av[1:]
	}
	return appendEpochRecord(nil, epochOf(rec), nodes, vals)
}

// rewrite makes the log equal the store: the log is replaced (temp file +
// rename) by the ring's records, oldest first, then the kept ledger's node
// record if there is one. Caller holds s.mu.
func (s *Store) rewrite() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Rewrite(func() {
		for i := 0; i < s.n; i++ {
			s.log.Append(s.record(i))
		}
		if s.energy != nil {
			cur, _ := s.cursor()
			s.log.Append(nodeRecord(cur, s.energy))
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
