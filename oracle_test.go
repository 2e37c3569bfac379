package kspot

// The per-epoch oracle's acceptance suite: the exact answer is built once
// per readings union and shared by every cursor of the epoch, and every
// cursor must still see exactly what topk.ExactSnapshot computes over the
// readings its own outcome ran on — its own slice, whatever the other
// cursors do with theirs, from whichever goroutine it is stepped.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/topk"
	"kspot/internal/topk/topktest"
)

// oracleWorld opens one of the conformance kit's randomized deployments —
// this seed's has six rooms of three sensors, so COUNT ties across every
// room every epoch and each K-th boundary is decided by the tie-break —
// split into the given number of shards.
func oracleWorld(t *testing.T, shards int, opts ...OpenOption) *System {
	t.Helper()
	scen := topktest.Scenarios(23, 1)[0]
	if err := scen.AutoShard(shards); err != nil {
		t.Fatal(err)
	}
	sys, err := Open(scen, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// TestSharedOracleMatchesExactSnapshot: sequential and concurrent, flat and
// federated, every aggregate × K (below, at and past the group count), a
// basic query and a group with its own source score against exactly what
// the per-cursor rebuild computed — and the shared-sensing cursors of an
// epoch all against ONE oracle.
func TestSharedOracleMatchesExactSnapshot(t *testing.T) {
	const epochs = 32
	for _, parallel := range []int{1, 4} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("live=%v/shards=%d", parallel > 1, shards), func(t *testing.T) {
				sys := oracleWorld(t, shards, WithParallel(parallel))
				// Every cursor below rides the shared sensing; K 9 is past the
				// deployment's six rooms.
				var shared []*Cursor
				for _, agg := range []string{"AVG", "MAX", "MIN", "SUM", "COUNT"} {
					for _, k := range []int{1, 3, 4, 9} {
						shared = append(shared, post(t, sys, fmt.Sprintf("SELECT TOP %d roomid, %s(sound) FROM sensors GROUP BY roomid", k, agg), AlgoAuto))
					}
				}
				// A basic query runs TAG and keeps the full ranking.
				shared = append(shared, post(t, sys, "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto))
				// A window aggregate runs on readings its shards derive: its own
				// union, hence its own oracle.
				own := post(t, sys, "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4", AlgoAuto)

				// step scores the cursor's next outcome the way Cursor.StepContext
				// does, against the reference over the readings it ran on.
				step := func(cur *Cursor) engine.Outcome {
					out, err := cur.sched.Step(cur.sq)
					if err != nil {
						t.Fatalf("%q: %v", cur.Query(), err)
					}
					res := cur.result(out)
					want := topk.ExactSnapshot(out.Readings, cur.plan.Snapshot)
					if !reflect.DeepEqual(res.Exact, want) { // element for element, nil-ness included
						t.Fatalf("epoch %d %q: Exact %v, ExactSnapshot %v", out.Epoch, cur.Query(), res.Exact, want)
					}
					if res.Correct != model.EqualAnswers(out.Answers, want) {
						t.Fatalf("epoch %d %q: Correct %v for answers %v, exact %v", out.Epoch, cur.Query(), res.Correct, out.Answers, want)
					}
					return out
				}
				for e := 0; e < epochs; e++ {
					// One oracle per union per epoch: every shared-sensing outcome
					// points at the same one, the derived-readings group at its own.
					first := step(shared[0])
					for _, cur := range shared[1:] {
						if out := step(cur); out.Oracle != first.Oracle {
							t.Fatalf("epoch %d %q: its own oracle over the shared union", e, cur.Query())
						}
					}
					if out := step(own); out.Oracle == first.Oracle {
						t.Fatalf("epoch %d: the window aggregate scored against the raw sensing's oracle", e)
					}
				}
			})
		}
	}
}

// TestSharedOracleExactIsCallerOwned: a cursor may keep or scribble on its
// Exact. Nothing it does reaches the ranking behind it — not the copies
// other cursors already hold, not the ones cut after it, not the next
// epoch's.
func TestSharedOracleExactIsCallerOwned(t *testing.T) {
	sys := oracleWorld(t, 1, WithParallel(2))
	const sql = "SELECT TOP 3 roomid, COUNT(sound) FROM sensors GROUP BY roomid"
	var curs []*Cursor
	for i := 0; i < 3; i++ {
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		curs = append(curs, cur)
	}
	step := func(cur *Cursor) StepResult {
		res, err := cur.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("epoch %d: answers %v, exact %v", res.Epoch, res.Answers, res.Exact)
		}
		return res
	}
	for e := 0; e < 3; e++ {
		before := step(curs[0])
		want := append([]Answer(nil), before.Exact...)
		victim := step(curs[1])
		for i := range victim.Exact {
			victim.Exact[i] = Answer{Group: 999, Score: -1}
		}
		_ = append(victim.Exact, Answer{Group: 998}, Answer{Group: 997})
		if !reflect.DeepEqual(before.Exact, want) {
			t.Fatalf("epoch %d: a copy cut earlier changed to %v, want %v", e, before.Exact, want)
		}
		if after := step(curs[2]); !reflect.DeepEqual(after.Exact, want) {
			t.Fatalf("epoch %d: a copy cut later reads %v, want %v", e, after.Exact, want)
		}
	}
}

// TestSharedOracleConcurrentCursors steps 16 cursors of one tier from 16
// goroutines: whichever reaches an epoch's oracle first builds it while the
// others wait on it or copy from it (run under -race).
func TestSharedOracleConcurrentCursors(t *testing.T) {
	const cursors, epochs = 16, 200
	sys := oracleWorld(t, 1, WithParallel(2))
	var wg sync.WaitGroup
	for i := 0; i < cursors; i++ {
		sql := fmt.Sprintf("SELECT TOP %d roomid, %s(sound) FROM sensors GROUP BY roomid", 1+i%4, []string{"AVG", "MAX"}[i/4%2])
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				out, err := cur.sched.Step(cur.sq)
				if err != nil {
					t.Errorf("%q: %v", sql, err)
					return
				}
				res := cur.result(out)
				if want := topk.ExactSnapshot(out.Readings, cur.plan.Snapshot); !reflect.DeepEqual(res.Exact, want) || !res.Correct {
					t.Errorf("epoch %d %q: answers %v, Exact %v, ExactSnapshot %v", out.Epoch, sql, res.Answers, res.Exact, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
