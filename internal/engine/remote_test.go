package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kspot/internal/model"
)

// stubShard is a scripted remote shard for the scheduler's shard-contract
// tests: it serves whole epochs in one call, with per-group scripted
// results.
type stubShard struct {
	mu         sync.Mutex
	readings   map[model.NodeID]model.Reading
	answers    []model.Answer
	override   map[model.NodeID]model.Reading
	roundErr   error            // transport-level failure of the whole round
	groupErrAt map[uint32]error // per-qid isolated failure
	shortReply bool             // return one fewer group than asked
	rounds     int
	lastQids   []uint32
}

func (s *stubShard) EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []RemoteGroupResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rounds++
	s.lastQids = append([]uint32(nil), queries...)
	if s.roundErr != nil {
		return nil, nil, s.roundErr
	}
	n := len(queries)
	if s.shortReply && n > 0 {
		n--
	}
	results := make([]RemoteGroupResult, n)
	for i := 0; i < n; i++ {
		if err := s.groupErrAt[queries[i]]; err != nil {
			results[i] = RemoteGroupResult{Err: err}
			continue
		}
		results[i] = RemoteGroupResult{Acq: RemoteAcquisition{Answers: s.answers, Readings: s.override}}
	}
	return s.readings, results, nil
}

// stubScheduler builds the one Scheduler over stub remote shards named
// shard-0, shard-1, ...
func stubScheduler(shards ...*stubShard) *Scheduler {
	deps := make([]*RemoteDeployment, len(shards))
	for i, sh := range shards {
		deps[i] = NewRemoteDeployment(fmt.Sprintf("shard-%d", i), sh)
	}
	return NewShardScheduler(deps...)
}

// schedule seats a query on a group the caller "attached" under qid.
func schedule(s *Scheduler, key string, qid uint32, merge MergeFunc) *ScheduledQuery {
	return s.Schedule(QuerySpec{Key: key, Query: qid, Merge: merge})
}

// stepOutcome steps a seat once. The epoch's own error travels in
// Outcome.Err (Step returns it too); only a refused seat fails the test.
func stepOutcome(t *testing.T, s *Scheduler, sq *ScheduledQuery) Outcome {
	t.Helper()
	out, err := s.Step(sq)
	if err != nil && out.Err == nil {
		t.Fatal(err)
	}
	return out
}

// stepOne schedules one private query and steps it once.
func stepOne(t *testing.T, s *Scheduler, qid uint32, merge MergeFunc) Outcome {
	t.Helper()
	return stepOutcome(t, s, schedule(s, "", qid, merge))
}

func readingsOf(ids ...model.NodeID) map[model.NodeID]model.Reading {
	out := make(map[model.NodeID]model.Reading, len(ids))
	for _, id := range ids {
		out[id] = model.Reading{Node: id, Value: model.Value(id) * 10}
	}
	return out
}

func TestRemoteCoordinatorEpochUnionAndMerge(t *testing.T) {
	a := &stubShard{readings: readingsOf(1, 2), answers: []model.Answer{{Group: 1, Score: 10}}}
	b := &stubShard{readings: readingsOf(3), answers: []model.Answer{{Group: 2, Score: 20}}}
	coord := stubScheduler(a, b)
	if coord.Shards() != 2 {
		t.Fatalf("Shards() = %d", coord.Shards())
	}
	merged := false
	out := stepOne(t, coord, 1, func(perShard [][]model.Answer) ([]model.Answer, error) {
		merged = true
		if len(perShard) != 2 {
			t.Fatalf("merge saw %d shards", len(perShard))
		}
		return append(perShard[0], perShard[1]...), nil
	})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !merged || len(out.Answers) != 2 {
		t.Fatalf("merge not applied: %+v", out)
	}
	if len(out.Readings) != 3 {
		t.Fatalf("union has %d readings, want 3", len(out.Readings))
	}
	if a.rounds != 1 || b.rounds != 1 {
		t.Fatalf("call counts: %d/%d rounds for one epoch", a.rounds, b.rounds)
	}
}

func TestRemoteCoordinatorOverrideReadings(t *testing.T) {
	// When shards return derived readings (GROUP BY ... WITH HISTORY), the
	// outcome's union must be built from those, not the shared sensing.
	a := &stubShard{readings: readingsOf(1), override: readingsOf(7)}
	b := &stubShard{readings: readingsOf(2), override: readingsOf(8)}
	coord := stubScheduler(a, b)
	out := stepOne(t, coord, 1, func(per [][]model.Answer) ([]model.Answer, error) { return nil, nil })
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	for _, want := range []model.NodeID{7, 8} {
		if _, ok := out.Readings[want]; !ok {
			t.Fatalf("override union missing node %d: %v", want, out.Readings)
		}
	}
	for _, raw := range []model.NodeID{1, 2} {
		if _, ok := out.Readings[raw]; ok {
			t.Fatalf("raw sensing leaked into override union: %v", out.Readings)
		}
	}
}

func TestRemoteCoordinatorShardErrorTagged(t *testing.T) {
	a := &stubShard{readings: readingsOf(1)}
	bad := &stubShard{readings: readingsOf(2), groupErrAt: map[uint32]error{1: fmt.Errorf("connection refused")}}
	coord := stubScheduler(a, bad)
	out := stepOne(t, coord, 1, func(per [][]model.Answer) ([]model.Answer, error) { return nil, nil })
	if out.Err == nil {
		t.Fatal("shard error swallowed")
	}
	if !strings.Contains(out.Err.Error(), "shard-1") {
		t.Fatalf("error not tagged with shard name: %v", out.Err)
	}
	// The healthy shard still completed its round — no wedging.
	if a.rounds != 1 {
		t.Fatalf("healthy shard ran %d rounds", a.rounds)
	}

	// A failed round poisons the whole epoch: every scheduled query, in
	// every group, buffers the tagged error.
	a2 := &stubShard{readings: readingsOf(1)}
	bad2 := &stubShard{roundErr: fmt.Errorf("shard gone")}
	coord2 := stubScheduler(a2, bad2)
	q1 := schedule(coord2, "g1", 1, nil)
	q2 := schedule(coord2, "g2", 2, nil)
	for _, q := range []*ScheduledQuery{q1, q2} {
		out := stepOutcome(t, coord2, q)
		if out.Err == nil || !strings.Contains(out.Err.Error(), "shard-1") || !strings.Contains(out.Err.Error(), "shard gone") {
			t.Fatalf("round error: %v", out.Err)
		}
	}
	if a2.rounds != 1 || bad2.rounds != 1 {
		t.Fatalf("one epoch ran %d/%d rounds", a2.rounds, bad2.rounds)
	}
}

func TestRemoteCoordinatorMergeRequired(t *testing.T) {
	coord := stubScheduler(&stubShard{readings: readingsOf(1)}, &stubShard{readings: readingsOf(2)})
	if out := stepOne(t, coord, 1, nil); out.Err == nil {
		t.Fatal("multi-shard epoch without a merge function succeeded")
	}
	// A single shard needs no merge: answers pass through.
	solo := stubScheduler(&stubShard{
		readings: readingsOf(1),
		answers:  []model.Answer{{Group: 1, Score: 5}},
	})
	out := stepOne(t, solo, 1, nil)
	if out.Err != nil || len(out.Answers) != 1 {
		t.Fatalf("flat pass-through: %+v", out)
	}
}

func TestRemoteCoordinatorBatchedRound(t *testing.T) {
	// A shard serves the whole epoch in one call: every group's qid in the
	// request, in group order, readings in the union.
	a := &stubShard{readings: readingsOf(1, 2), answers: []model.Answer{{Group: 1, Score: 10}}}
	coord := stubScheduler(a)
	q1 := schedule(coord, "g1", 11, nil)
	q2 := schedule(coord, "g2", 22, nil)
	out1 := stepOutcome(t, coord, q1)
	out2 := stepOutcome(t, coord, q2)
	for _, out := range []Outcome{out1, out2} {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if len(out.Answers) != 1 || len(out.Readings) != 2 {
			t.Fatalf("batched outcome: %+v", out)
		}
	}
	if a.rounds != 1 {
		t.Fatalf("calls: %d rounds for one epoch", a.rounds)
	}
	if len(a.lastQids) != 2 || a.lastQids[0] != 11 || a.lastQids[1] != 22 {
		t.Fatalf("round qids: %v", a.lastQids)
	}
}

func TestRemoteCoordinatorBatchedGroupCountMismatch(t *testing.T) {
	// A reply with the wrong group count is a transport-level failure: the
	// whole epoch is poisoned, tagged with the shard's name.
	a := &stubShard{readings: readingsOf(1), shortReply: true}
	coord := stubScheduler(a)
	q := schedule(coord, "", 5, nil)
	out := stepOutcome(t, coord, q)
	if out.Err == nil || !strings.Contains(out.Err.Error(), "shard-0") || !strings.Contains(out.Err.Error(), "0 groups, want 1") {
		t.Fatalf("mismatch error: %v", out.Err)
	}
}

func TestRemoteCoordinatorBatchedGroupErrorIsolated(t *testing.T) {
	// One group's failure inside a round poisons only that group's members;
	// the other group still gets its answers from the same round trip.
	a := &stubShard{readings: readingsOf(1), answers: []model.Answer{{Group: 1, Score: 10}},
		groupErrAt: map[uint32]error{33: fmt.Errorf("query gone")}}
	coord := stubScheduler(a)
	ok := schedule(coord, "ok", 11, nil)
	bad := schedule(coord, "bad", 33, nil)
	outOK := stepOutcome(t, coord, ok)
	outBad := stepOutcome(t, coord, bad)
	if outOK.Err != nil || len(outOK.Answers) != 1 {
		t.Fatalf("healthy group: %+v", outOK)
	}
	if outBad.Err == nil || !strings.Contains(outBad.Err.Error(), "query gone") || !strings.Contains(outBad.Err.Error(), "shard-0") {
		t.Fatalf("failed group: %v", outBad.Err)
	}
	if a.rounds != 1 {
		t.Fatalf("rounds: %d", a.rounds)
	}
}

func TestRemoteCoordinatorRemoveDropsBuffered(t *testing.T) {
	// The lock-step buffers an outcome (and its readings map) for every
	// seat each epoch; removing a seat over remote shards must drop what it
	// never consumed, refuse its later steps, and leave the others serving.
	a := &stubShard{readings: readingsOf(1, 2), answers: []model.Answer{{Group: 1, Score: 10}}}
	coord := stubScheduler(a)
	stepped := schedule(coord, "g1", 11, nil)
	idle := schedule(coord, "g2", 22, nil)
	for i := 0; i < 3; i++ {
		stepOutcome(t, coord, stepped)
	}
	if len(idle.pending) != 3 {
		t.Fatalf("idle seat buffered %d outcomes, want 3", len(idle.pending))
	}
	coord.Remove(idle)
	if idle.pending != nil {
		t.Fatalf("removed seat still holds %d buffered outcomes", len(idle.pending))
	}
	if _, err := coord.Step(idle); err != errRemoved {
		t.Fatalf("step on a removed seat: %v", err)
	}
	if out := stepOutcome(t, coord, stepped); out.Err != nil || out.Epoch != 3 {
		t.Fatalf("surviving seat after the removal: %+v", out)
	}
	if len(a.lastQids) != 1 || a.lastQids[0] != 11 {
		t.Fatalf("dissolved group still acquired: round qids %v", a.lastQids)
	}
}

// gatedShard holds every round open until released.
type gatedShard struct {
	enter, gate chan struct{}
}

func (s *gatedShard) EpochRound(model.Epoch, []uint32) (map[model.NodeID]model.Reading, []RemoteGroupResult, error) {
	s.enter <- struct{}{}
	<-s.gate
	return nil, []RemoteGroupResult{{}}, nil
}

// TestStepContextBackgroundRunsInline: under a context that cannot be
// cancelled nothing can abandon a step, so it runs on its caller — no
// goroutine is started to hand the outcome back, even over a shard whose
// epochs may finish in the background.
func TestStepContextBackgroundRunsInline(t *testing.T) {
	sh := &gatedShard{enter: make(chan struct{}), gate: make(chan struct{})}
	s := NewShardScheduler(NewRemoteDeployment("gated", sh))
	sq := schedule(s, "", 1, nil)
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := s.StepContext(context.Background(), sq)
		done <- err
	}()
	<-sh.enter // the epoch is in flight and its shard blocked
	// One more goroutine than before: the caller above. (Fewer is fine — an
	// earlier test's goroutine may have exited meanwhile.)
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Errorf("a Background step runs on %d goroutines beside its caller", got-before-1)
	}
	close(sh.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
