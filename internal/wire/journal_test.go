package wire

// The session journal's pins: torn-tail recovery over its own state
// machine (the framing's are internal/storage's), the one-session bound on
// its size, and a write failure surfacing in the storage block without
// touching answers.

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/storage"
)

// startDurableServer runs a Figure-3 shard server persisting under dir.
func startDurableServer(t *testing.T, dir string) (string, *Server) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Scenario: config.Figure3Scenario(), Shard: 0, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv
}

// TestJournalTornTailEveryBoundary: a journal cut at every byte of its
// last record recovers exactly the session state before that record —
// with an attach, a detach, an energy checkpoint and a session-opening
// nonce each as the record the crash tore — and keeps journaling after.
func TestJournalTornTailEveryBoundary(t *testing.T) {
	uj := func(nodes ...model.NodeID) []storage.NodeEnergy {
		rows := make([]storage.NodeEnergy, len(nodes))
		for i, n := range nodes {
			rows[i] = storage.NodeEnergy{Node: n, UJ: float64(n) * 1.25}
		}
		return rows
	}
	cases := []struct {
		name string
		last func(*journal) error
		// differs reports that the torn record would have changed the state.
		differs func(before, after journalState) bool
	}{
		{"attach", func(j *journal) error {
			return j.Attach(AttachReq{Query: 3, Algo: "tag", SQL: "SELECT TOP 1 roomid, MAX(temp) FROM sensors GROUP BY roomid"})
		},
			func(b, a journalState) bool { return len(b.attaches) == 2 && len(a.attaches) == 3 }},
		{"detach", func(j *journal) error { return j.Detach(1) },
			func(b, a journalState) bool {
				return len(b.attaches) == 2 && len(a.attaches) == 1 && a.attaches[0].Query == 2
			}},
		{"energy checkpoint", func(j *journal) error { return j.Energy(5, uj(1, 2, 3)) },
			func(b, a journalState) bool { return b.energyEpoch == 4 && a.energyEpoch == 5 && len(a.energy) == 3 }},
		{"nonce reset", func(j *journal) error { return j.Nonce(99) },
			// A nonce rewrites the journal to itself, so the state before
			// its record is the empty journal's.
			func(b, a journalState) bool {
				return b.nonce == 0 && a.nonce == 99 && len(a.attaches) == 0 && !a.hasEnergy
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "meta.journal")
			j, _, err := openJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range []error{
				j.Nonce(42),
				j.Attach(AttachReq{Query: 1, Algo: "mint", SQL: "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"}),
				j.Attach(AttachReq{Query: 2, Algo: "mint", SQL: "SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid"}),
				j.Energy(4, uj(1, 2)),
				tc.last(j),
				j.Close(),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			keep := 8 // the log header; then hop records to the last one's start
			for next := keep; next < len(full); next += 8 + int(binary.LittleEndian.Uint32(full[next:])) {
				keep = next
			}
			reopen := func(img []byte) (journalState, int64) {
				t.Helper()
				p := filepath.Join(t.TempDir(), "meta.journal")
				if err := os.WriteFile(p, img, 0o644); err != nil {
					t.Fatal(err)
				}
				j, st, err := openJournal(p)
				if err != nil {
					t.Fatalf("%d of %d bytes: %v", len(img), len(full), err)
				}
				// The recovered journal keeps taking records after the cut.
				if err := j.Detach(77); err != nil || j.Close() != nil {
					t.Fatalf("%d of %d bytes: journaling after recovery: %v", len(img), len(full), err)
				}
				if _, _, err := openJournal(p); err != nil {
					t.Fatalf("%d of %d bytes: reopen after recovery: %v", len(img), len(full), err)
				}
				fi, _ := os.Stat(p)
				return st, fi.Size() - (8 + 5) // minus the detach just appended
			}
			before, _ := reopen(full[:keep])
			after, size := reopen(full)
			if !tc.differs(before, after) || size != int64(len(full)) {
				t.Fatalf("vacuous case: before %+v, after %+v, size %d of %d", before, after, size, len(full))
			}
			for cut := keep; cut < len(full); cut++ {
				got, size := reopen(full[:cut])
				if !reflect.DeepEqual(got, before) {
					t.Fatalf("cut %d: recovered %+v, want %+v", cut, got, before)
				}
				if size != int64(keep) {
					t.Fatalf("cut %d: torn tail left %d bytes, want %d", cut, size, keep)
				}
			}
		})
	}
}

// TestJournalIsOneSessionLong: a new coordinator session rewrites the
// journal (and resets the shard log) instead of appending after the dead
// sessions, so three identical sessions leave exactly one session's bytes.
func TestJournalIsOneSessionLong(t *testing.T) {
	dir := t.TempDir()
	addr, _ := startDurableServer(t, dir)
	var sizes [3][2]int64
	for s := range sizes {
		cl, err := Dial(testClientConfig(addr)) // every Dial is a new session nonce
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Attach(1, "mint", "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Attach(2, "tag", "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid"); err != nil {
			t.Fatal(err)
		}
		for e := model.Epoch(0); e < 4; e++ {
			if _, _, err := cl.EpochRound(e, []uint32{1, 2}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Detach(2); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		for f, name := range []string{"meta.journal", "shard.log"} {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			sizes[s][f] = fi.Size()
		}
	}
	if sizes[0][0] <= 8 || sizes[0][1] <= 8 || sizes[1] != sizes[0] || sizes[2] != sizes[0] {
		t.Fatalf("journal/log bytes after sessions 1..3: %v, want one session's each time", sizes)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("data dir holds %d files, want shard.log and meta.journal", len(ents))
	}
}

// TestJournalFailureShowsInStorageStats: a journal that stops taking
// writes is reported in the shard's storage block — the place a failed
// shard log reports to — and the epochs around the failure answer exactly
// as a shard with no data dir does.
func TestJournalFailureShowsInStorageStats(t *testing.T) {
	const sql = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	durableAddr, srv := startDurableServer(t, t.TempDir())
	memoryAddr, _ := startTestServer(t)
	var cls [2]*Client
	for i, addr := range []string{durableAddr, memoryAddr} {
		cl, err := Dial(testClientConfig(addr))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Attach(1, "mint", sql); err != nil {
			t.Fatal(err)
		}
		cls[i] = cl
	}
	roster := config.Figure3Scenario().Roster()
	for e := model.Epoch(0); e < 4; e++ {
		if e == 2 {
			srv.mu.Lock()
			srv.journal.log.Close() // the file fails under the running shard
			srv.mu.Unlock()
		}
		var replies [2][]byte
		for i, cl := range cls {
			readings, groups, err := cl.EpochRound(e, []uint32{1})
			if err != nil || groups[0].Err != nil {
				t.Fatalf("epoch %d: %v / %v", e, err, groups[0].Err)
			}
			replies[i] = append(readingsBytes(t, roster, e, readings), answersBytesOf(groups[0].Acq.Answers)...)
		}
		if !bytes.Equal(replies[0], replies[1]) {
			t.Fatalf("epoch %d: the durable shard answered differently from the memory one", e)
		}
		st, err := cls[0].StorageStats()
		if err != nil {
			t.Fatal(err)
		}
		if failed := st.Err != ""; failed != (e >= 2) || (failed && !strings.Contains(st.Err, "meta.journal")) {
			t.Fatalf("epoch %d: storage block error %q", e, st.Err)
		}
		if st.LastEpoch != e {
			t.Fatalf("epoch %d: the shard log stopped at %d when the journal failed", e, st.LastEpoch)
		}
	}
}
