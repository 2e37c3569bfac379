package bench

import (
	"fmt"
	"io"

	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/naive"
	"kspot/internal/topk/tag"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

func init() {
	register(Experiment{ID: "e9", Title: "Recall of naive greedy pruning", Run: runE9})
	register(Experiment{ID: "e10", Title: "Query parse/plan routing and latency", Run: runE10})
	register(Experiment{ID: "e11", Title: "Ablation: γ recovery on/off", Run: runE11})
	register(Experiment{ID: "e12", Title: "Ablation: radio payload size / fragmentation", Run: runE12})
	register(Experiment{ID: "e13", Title: "Lossy links: retransmissions and staleness", Run: runE13})
}

// runE9 quantifies how often, and how badly, the naive strategy of §III-A
// errs across seeded random deployments.
func runE9(w io.Writer, cfg RunConfig) error {
	runs := cfg.scaled(200)
	epochsPer := 10
	var sumRecall float64
	wrongRuns := 0
	perfect := 0
	for seed := int64(1); seed <= int64(runs); seed++ {
		p := topo.Rooms(6, 3, 12, seed)
		net, err := sim.New(p, 30, sim.DefaultOptions())
		if err != nil {
			continue // disconnected random layout: skip, like a failed deployment
		}
		src := trace.NewRoomActivity(seed*31, p.Groups, 6)
		r := &topk.Runner{Net: net, Source: src, Op: naive.New(), Query: topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: soundRange()}}
		results, err := r.Run(epochsPer)
		if err != nil {
			return err
		}
		s := topk.Summarize(results)
		sumRecall += s.MeanRecall
		if s.CorrectPct < 100 {
			wrongRuns++
		} else {
			perfect++
		}
	}
	total := wrongRuns + perfect
	fmt.Fprintf(w, "== E9: naive greedy recall, %d seeded 18-node deployments, k=2 ==\n", total)
	fmt.Fprintf(w, "runs with at least one wrong epoch: %d / %d (%.1f%%)\n", wrongRuns, total, 100*float64(wrongRuns)/float64(maxInt(total, 1)))
	fmt.Fprintf(w, "mean recall: %.4f (exact algorithms: 1.0000)\n", sumRecall/float64(maxInt(total, 1)))
	return nil
}

// runE10 exercises the router of §II on a query workload and reports
// dispatch decisions.
func runE10(w io.Writer, cfg RunConfig) error {
	schema := query.DefaultSchema()
	queries := []string{
		"SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min",
		"SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid",
		"SELECT TOP 5 timeinstant, AVG(temp) FROM sensors WITH HISTORY 256",
		"SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 32",
		"SELECT sound, temp FROM sensors EPOCH DURATION 30 s",
		"SELECT roomid, MIN(temp) FROM sensors GROUP BY roomid",
	}
	fmt.Fprintln(w, "== E10: query routing (§II local query parser) ==")
	for _, q := range queries {
		plan, err := query.PlanText(q, schema)
		if err != nil {
			return fmt.Errorf("planning %q: %w", q, err)
		}
		fmt.Fprintf(w, "%-22s <- %s\n", plan.Kind, q)
	}
	return nil
}

// runE11 measures what the recovery loop buys: correctness under answer
// churn, and its traffic cost.
func runE11(w io.Writer, cfg RunConfig) error {
	epochs := cfg.scaled(100)
	var rows []stats.RunStats
	for _, cfg := range []struct {
		name string
		op   topk.SnapshotOperator
	}{
		{"mint", mint.New()},
		{"mint-norecovery", mint.NewWithConfig(mint.Config{NoRecovery: true})},
		{"mint-slack5", mint.NewWithConfig(mint.Config{Slack: 5})},
	} {
		src := trace.NewRoomActivity(3, nil, 8)
		src.Period = 5 // heavy churn
		net, err := gridNetwork(64, 8, sim.DefaultOptions())
		if err != nil {
			return err
		}
		src.Groups = net.Placement.Groups
		rs, err := snapshotRun(cfg.name, cfg.op, net, src, topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: soundRange()}, epochs)
		if err != nil {
			return err
		}
		rows = append(rows, rs)
	}
	fmt.Fprint(w, stats.Table(fmt.Sprintf("E11: γ recovery ablation, churn period 5, %d epochs", epochs), rows))
	if rows[0].Correct < 100 {
		fmt.Fprintln(w, "!! SHAPE VIOLATION: full MINT not exact under churn")
	}
	if rows[1].Correct >= 100 {
		fmt.Fprintln(w, "!! SHAPE VIOLATION: no-recovery ablation shows no staleness (vacuous)")
	}
	return nil
}

// runE12 sweeps the radio payload size: small TinyOS frames fragment TAG's
// wide views while MINT's pruned views fit; larger payloads close the
// frame-count gap but not the byte gap.
func runE12(w io.Writer, cfg RunConfig) error {
	epochs := cfg.scaled(60)
	var series []stats.Series
	for _, payload := range []int{16, 29, 64, 128} {
		opts := sim.DefaultOptions()
		opts.Radio.Payload = payload
		src := trace.NewRoomActivity(7, nil, 16)
		q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: soundRange()}
		var rows []stats.RunStats
		for _, o := range []struct {
			name string
			op   topk.SnapshotOperator
		}{{"mint", mint.New()}, {"tag", tag.New()}} {
			net, err := gridNetwork(64, 16, opts)
			if err != nil {
				return err
			}
			src.Groups = net.Placement.Groups
			rs, err := snapshotRun(o.name, o.op, net, src, q, epochs)
			if err != nil {
				return err
			}
			rows = append(rows, rs)
		}
		series = append(series, stats.Series{X: float64(payload), Rows: rows})
	}
	fmt.Fprint(w, stats.SweepTable(fmt.Sprintf("E12: payload size vs frames, n=64, G=16, k=2, %d epochs", epochs), "payload", series))
	return nil
}

// runE13 injects frame loss and reports retransmission overhead and result
// staleness (exactness is only guaranteed on lossless links; the question
// is how gracefully accuracy degrades).
func runE13(w io.Writer, cfg RunConfig) error {
	epochs := cfg.scaled(80)
	var series []stats.Series
	for _, loss := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		src := trace.NewRoomActivity(7, nil, 8)
		q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: soundRange()}
		var rows []stats.RunStats
		for _, o := range []struct {
			name string
			op   topk.SnapshotOperator
		}{{"mint", mint.New()}, {"tag", tag.New()}} {
			net, err := gridNetwork(36, 8, sim.DefaultOptions())
			if err != nil {
				return err
			}
			// The keyed Bernoulli model every lossy deployment arms; at
			// 0 % it installs nothing and the row is the lossless run.
			if _, err := faults.Wrap(net, faults.Config{Seed: 99, Loss: loss}); err != nil {
				return err
			}
			src.Groups = net.Placement.Groups
			rs, err := snapshotRun(o.name, o.op, net, src, q, epochs)
			if err != nil {
				return err
			}
			rows = append(rows, rs)
		}
		series = append(series, stats.Series{X: loss * 100, Rows: rows})
	}
	fmt.Fprint(w, stats.SweepTable(fmt.Sprintf("E13: loss sweep (x = loss %%), n=36, G=8, k=2, %d epochs", epochs), "loss%", series))
	fmt.Fprintln(w, "note: recall stays high under loss; exactness holds only at 0% (documented limitation)")
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
