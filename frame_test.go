package kspot

import (
	"reflect"
	"testing"

	"kspot/internal/serve"
)

// frameWorld opens the demo deployment with sqls posted, in order.
func frameWorld(t *testing.T, sqls ...string) (*System, []*Cursor) {
	t.Helper()
	sys, _ := row{world: "demo", parallel: 2}.open(t)
	t.Cleanup(sys.Close)
	var cursors []*Cursor
	for _, sql := range sqls {
		cursors = append(cursors, post(t, sys, sql, AlgoAuto))
	}
	return sys, cursors
}

// stepFrame steps cursors in one frame and returns its results, failing
// the test on an error or an incorrect answer.
func stepFrame(t *testing.T, sys *System, cursors []*Cursor) []StepResult {
	t.Helper()
	results := make([]StepResult, len(cursors))
	sys.StepFrame(cursors, func(i int, res StepResult, err error) {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !res.Correct || res.Exact != nil {
			t.Fatalf("query %d, epoch %d: answers %v, correct %v, exact %v", i, res.Epoch, res.Answers, res.Correct, res.Exact)
		}
		results[i] = res
	})
	return results
}

// TestStepFrameAnswersOutliveTheirEpoch: answers are shared, not copied —
// two members of one group at K 2 and 4 read prefixes of one ranking, and
// an append to the shorter cannot reach the longer — yet a hub frame
// published at epoch e still reads the same 128 epochs later, while a
// subscriber holds it in the ring.
func TestStepFrameAnswersOutliveTheirEpoch(t *testing.T) {
	sys, cursors := frameWorld(t,
		"SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
		"SELECT TOP 4 roomid, AVG(sound) FROM sensors GROUP BY roomid",
		"SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid",
	)
	for i := 0; i < 8; i++ { // past MINT's creation epoch
		stepFrame(t, sys, cursors)
	}
	hub := serve.NewHub(0)
	subs := make([]*serve.Subscriber, len(cursors))
	for q := range subs {
		subs[q] = hub.Watch(q)
	}
	frame := make([]serve.Result, len(cursors))
	publish := func() []StepResult {
		results := stepFrame(t, sys, cursors)
		for i, res := range results {
			frame[i] = serve.Result{Epoch: res.Epoch, Answers: res.Answers, Correct: res.Correct}
		}
		hub.Publish(frame...)
		return results
	}

	held := publish()
	two, four := held[0].Answers, held[1].Answers
	if len(two) != 2 || len(four) != 4 {
		t.Fatalf("answers %v and %v, want 2 and 4 long", two, four)
	}
	if &two[0] != &four[0] || cap(two) != 2 {
		t.Fatalf("K 2's answers (cap %d) are not a capped prefix of K 4's ranking", cap(two))
	}
	want := make([][]Answer, len(held))
	for i, res := range held {
		want[i] = append([]Answer(nil), res.Answers...)
	}
	_ = append(two, Answer{Group: 999, Score: -1})
	if !reflect.DeepEqual(four, want[1]) {
		t.Fatalf("an append to K 2's answers reached K 4's: %v, want %v", four, want[1])
	}

	for i := 0; i < 128; i++ {
		publish()
	}
	for q, sub := range subs {
		res, ok := sub.Next()
		if !ok || res.Epoch != held[q].Epoch {
			t.Fatalf("query %d: subscriber reads epoch %d (ok %v), want the held epoch %d", q, res.Epoch, ok, held[q].Epoch)
		}
		if !reflect.DeepEqual(res.Answers, want[q]) || !reflect.DeepEqual(held[q].Answers, want[q]) {
			t.Fatalf("query %d, epoch %d: the hub's frame reads %v and the held result %v 128 epochs on, want %v",
				q, res.Epoch, res.Answers, held[q].Answers, want[q])
		}
	}
}

// TestStepFrameMatchesStep: a frame is Step on each cursor in turn — the
// same epochs, answers and scores as the reference deployment stepped
// cursor by cursor.
func TestStepFrameMatchesStep(t *testing.T) {
	runRows(t, []row{{name: "demo", world: "demo", parallel: 2, epochs: 24, frame: true, queries: []rowQuery{
		{"SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto},
		{"SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto},
		{"SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid", AlgoAuto},
		{"SELECT TOP 2 roomid, MIN(temp) FROM sensors GROUP BY roomid", AlgoAuto},
	}}})
}

// TestStepFrameSkipsAClosedCursor: a closed cursor, a historic one and
// another System's each fail their own entry; the others step on, epoch
// after epoch. Once the System closes, every entry fails.
func TestStepFrameSkipsAClosedCursor(t *testing.T) {
	sys, cursors := frameWorld(t,
		"SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
		"SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
		"SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid",
		"SELECT TOP 4 timeinstant, AVG(temp) FROM sensors WITH HISTORY 16",
	)
	_, others := frameWorld(t, "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid")
	cursors = append(cursors, others[0])
	cursors[1].Close()
	failing := map[int]bool{1: true, 3: true, 4: true}
	for e := Epoch(0); e < 4; e++ {
		sys.StepFrame(cursors, func(i int, res StepResult, err error) {
			switch {
			case failing[i] && err == nil:
				t.Fatalf("epoch %d: query %d stepped, want its own error", e, i)
			case failing[i]:
			case err != nil:
				t.Fatalf("epoch %d: query %d: %v", e, i, err)
			case res.Epoch != e || !res.Correct:
				t.Fatalf("query %d: epoch %d correct %v, want epoch %d correct", i, res.Epoch, res.Correct, e)
			}
		})
	}
	sys.Close()
	n := 0
	sys.StepFrame(cursors, func(i int, _ StepResult, err error) {
		if err == nil {
			t.Fatalf("query %d stepped on a closed System", i)
		}
		n++
	})
	if n != len(cursors) {
		t.Fatalf("a closed System's frame reported %d of %d entries", n, len(cursors))
	}
}
