// Package stats implements KSpot's System Panel: the component that
// "continuously displays the savings in energy and messages that our system
// yields". It reads the simulator's radio counters and energy ledger,
// compares an algorithm's run against a baseline, and renders the
// comparison as fixed-width tables and CSV for the benchmark harness.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"kspot/internal/radio"
	"kspot/internal/sim"
)

// RunStats summarizes one algorithm's run for the panel.
type RunStats struct {
	Algorithm string
	Epochs    int
	Messages  int
	Frames    int
	TxBytes   int
	RxBytes   int
	Drops     int
	EnergyUJ  float64
	EnergyMax float64               // hottest node, µJ
	PerKind   map[radio.MsgKind]int // tx bytes per message kind
	Correct   float64               // percent of epochs exact
	Recall    float64
}

// Collect reads a network's counters into a RunStats, under the network's
// lock: an epoch a cancelled step abandoned may still be charging them.
// Epochs is the network's own count unless epochs overrides it.
func Collect(name string, net *sim.Network, epochs int) RunStats {
	r := RunStats{Algorithm: name, Epochs: epochs, PerKind: make(map[radio.MsgKind]int)}
	net.Locked(func() {
		if epochs == 0 {
			r.Epochs = net.Epochs
		}
		for k, v := range net.Counter.TxBytes {
			if v != 0 { // a kind never transmitted has no entry
				r.PerKind[radio.MsgKind(k)] = v
			}
		}
		r.Messages = net.Counter.TotalMessages()
		r.Frames = net.Counter.TotalFrames()
		r.TxBytes = net.Counter.TotalTxBytes()
		r.RxBytes = net.Counter.TotalRxBytes()
		r.Drops = net.Counter.Drops
		r.EnergyUJ = net.Ledger.Total()
		r.EnergyMax = net.Ledger.Max()
	})
	return r
}

// Merge sums shard rows into one aggregate row under a new label — how a
// federated deployment's System Panel totals its per-shard traffic.
// Counters add; EnergyMax keeps the hottest node anywhere; Epochs takes
// the maximum (shards advance in lock-step, so their epoch counts agree);
// the quality columns (Correct, Recall) are left zero — they belong to a
// query, not to a traffic aggregate.
func Merge(name string, rows ...RunStats) RunStats {
	out := RunStats{Algorithm: name, PerKind: map[radio.MsgKind]int{}}
	for _, r := range rows {
		if r.Epochs > out.Epochs {
			out.Epochs = r.Epochs
		}
		out.Messages += r.Messages
		out.Frames += r.Frames
		out.TxBytes += r.TxBytes
		out.RxBytes += r.RxBytes
		out.Drops += r.Drops
		out.EnergyUJ += r.EnergyUJ
		if r.EnergyMax > out.EnergyMax {
			out.EnergyMax = r.EnergyMax
		}
		for k, v := range r.PerKind {
			out.PerKind[k] += v
		}
	}
	return out
}

// Savings quantifies a run against a baseline, as the System Panel shows:
// positive percentages mean the run consumed less.
type Savings struct {
	Algorithm string
	Baseline  string
	Messages  float64 // percent saved
	Frames    float64
	Bytes     float64
	Energy    float64
}

// Compare computes savings of run over baseline.
func Compare(run, baseline RunStats) Savings {
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * (1 - a/b)
	}
	return Savings{
		Algorithm: run.Algorithm,
		Baseline:  baseline.Algorithm,
		Messages:  pct(float64(run.Messages), float64(baseline.Messages)),
		Frames:    pct(float64(run.Frames), float64(baseline.Frames)),
		Bytes:     pct(float64(run.TxBytes), float64(baseline.TxBytes)),
		Energy:    pct(run.EnergyUJ, baseline.EnergyUJ),
	}
}

func (s Savings) String() string {
	return fmt.Sprintf("%s vs %s: msgs %+.1f%%, frames %+.1f%%, bytes %+.1f%%, energy %+.1f%%",
		s.Algorithm, s.Baseline, s.Messages, s.Frames, s.Bytes, s.Energy)
}

// Table renders rows of RunStats as a fixed-width comparison table — the
// format cmd/kspot-bench prints for every experiment.
func Table(title string, rows []RunStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-16s %8s %10s %10s %12s %12s %9s %8s\n",
		"algorithm", "epochs", "messages", "frames", "tx-bytes", "energy(mJ)", "correct%", "recall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %10d %10d %12d %12.2f %9.1f %8.3f\n",
			r.Algorithm, r.Epochs, r.Messages, r.Frames, r.TxBytes, r.EnergyUJ/1000, r.Correct, r.Recall)
	}
	return b.String()
}

// PhaseTable renders per-message-kind byte breakdowns (TJA's LB/HJ/CL
// anatomy, experiment E8).
func PhaseTable(title string, rows []RunStats) string {
	kinds := map[radio.MsgKind]bool{}
	for _, r := range rows {
		for k := range r.PerKind {
			kinds[k] = true
		}
	}
	ordered := make([]radio.MsgKind, 0, len(kinds))
	for k := range kinds {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-16s", "algorithm")
	for _, k := range ordered {
		fmt.Fprintf(&b, " %10s", k)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s", r.Algorithm)
		for _, k := range ordered {
			fmt.Fprintf(&b, " %10d", r.PerKind[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Series is one line of a sweep experiment: an x value (e.g. K or network
// size) and the metric rows measured there.
type Series struct {
	X    float64
	Rows []RunStats
}

// SweepTable renders a parameter sweep with one row per (x, algorithm).
func SweepTable(title, xName string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%8s %-16s %10s %10s %12s %12s %9s\n",
		xName, "algorithm", "messages", "frames", "tx-bytes", "energy(mJ)", "correct%")
	for _, s := range series {
		for _, r := range s.Rows {
			fmt.Fprintf(&b, "%8.0f %-16s %10d %10d %12d %12.2f %9.1f\n",
				s.X, r.Algorithm, r.Messages, r.Frames, r.TxBytes, r.EnergyUJ/1000, r.Correct)
		}
	}
	return b.String()
}
