package kspot

import (
	"fmt"
	"testing"
)

// TestParallelSweepEquivalence is the acceptance pin of the parallel
// execution layer: opening the same scenario with WithParallel(8) produces
// answers, traffic, frames, drops and energy identical to the sequential
// reference: one query, so the only concurrency is the level-synchronous
// sweep and the background presample. Faults and churn are armed in one
// variant so loss draws, revival timing and fault hashing are exercised
// under the parallel commit order, and disarmed in the other so the clean
// hot path is pinned too.
func TestParallelSweepEquivalence(t *testing.T) {
	var rows []row
	for _, size := range []int{1000, 4000} {
		for _, armed := range []bool{false, true} {
			r := row{name: fmt.Sprintf("scale-%d/faults=%v", size, armed), world: fmt.Sprintf("scale-%d", size),
				parallel: 8, epochs: 6, long: size > 1000, queries: []rowQuery{{scaleSQL, AlgoMINT}}}
			if size > 1000 {
				r.epochs = 4
			}
			if armed {
				// Kill one mid-field node for good, bounce another (scale
				// worlds number their nodes 1..n): the revival lands mid-run
				// so the parallel sweep replays the wake-on-first-transmission
				// path.
				a, b := NodeID(size/3+1), NodeID(2*size/3+1)
				r.faults = &FaultConfig{Seed: 11, Loss: 0.05, Churn: []ChurnEvent{
					{Node: a, Epoch: 1, Down: true}, {Node: b, Epoch: 1, Down: true}, {Node: b, Epoch: 3, Down: false}}}
			}
			rows = append(rows, r)
		}
	}
	runRows(t, rows)
}
