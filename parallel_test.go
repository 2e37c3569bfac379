package kspot

import (
	"fmt"
	"reflect"
	"testing"

	"kspot/internal/model"
)

// TestParallelSweepEquivalence is the acceptance pin of the parallel
// execution layer: opening the same scenario with WithParallel(N) must
// produce answers, traffic, frames, drops and energy identical to the
// sequential path: one query, so the only concurrency is the
// level-synchronous sweep and the background presample. Faults and churn
// are armed in one variant so loss draws, revival timing and fault hashing
// are exercised under the parallel commit order, and disarmed in the other
// so the clean hot path is pinned too.
func TestParallelSweepEquivalence(t *testing.T) {
	sizes := []int{1000}
	if !testing.Short() {
		sizes = append(sizes, 4000)
	}
	const sql = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	for _, size := range sizes {
		size := size
		for _, armed := range []bool{false, true} {
			armed := armed
			name := fmt.Sprintf("scale-%d/faults=%v", size, armed)
			t.Run(name, func(t *testing.T) {
				epochs := 6
				if size > 1000 {
					epochs = 4
				}
				run := func(workers int) ([]StepResult, RunStats) {
					scen, err := ScaleScenario(size)
					if err != nil {
						t.Fatal(err)
					}
					if armed {
						// Kill one mid-field node for good, bounce another:
						// the revival lands mid-run so the parallel sweep
						// replays the wake-on-first-transmission path.
						a, b := scen.Nodes[len(scen.Nodes)/3].ID, scen.Nodes[2*len(scen.Nodes)/3].ID
						scen.Faults = &FaultConfig{
							Seed: 11,
							Loss: 0.05,
							Churn: []ChurnEvent{
								{Node: NodeID(a), Epoch: 1, Down: true},
								{Node: NodeID(b), Epoch: 1, Down: true},
								{Node: NodeID(b), Epoch: 3, Down: false},
							},
						}
					}
					sys, err := Open(scen, WithParallel(workers))
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					cur, err := sys.PostWith(sql, AlgoMINT)
					if err != nil {
						t.Fatal(err)
					}
					out := make([]StepResult, 0, epochs)
					for i := 0; i < epochs; i++ {
						res, err := cur.Step()
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, res)
					}
					return out, sys.CaptureStats("run", epochs)
				}

				seq, seqStats := run(1)
				par, parStats := run(8)
				for e := range seq {
					if !model.EqualAnswers(seq[e].Answers, par[e].Answers) {
						t.Fatalf("epoch %d: sequential %v, parallel %v", e, seq[e].Answers, par[e].Answers)
					}
					if seq[e].Correct != par[e].Correct {
						t.Fatalf("epoch %d: oracle verdict diverged (seq %v, par %v)", e, seq[e].Correct, par[e].Correct)
					}
				}
				// The parallel sweep promises bit-identical accounting, not
				// just identical answers: every counter and the energy ledger
				// (an exact float sum in node order) must match.
				if !reflect.DeepEqual(seqStats, parStats) {
					t.Fatalf("accounting diverged:\nsequential %+v\nparallel   %+v", seqStats, parStats)
				}
			})
		}
	}
}
