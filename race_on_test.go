//go:build race

package kspot

// raceEnabled reports that the race detector is on. Under it sync.Pool
// deliberately drops a quarter of all Puts, so the pooled views of the
// epoch hot path are re-allocated in proportion to the node count.
const raceEnabled = true
