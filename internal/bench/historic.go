package bench

import (
	"fmt"
	"io"

	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/central"
	"kspot/internal/topk/tja"
	"kspot/internal/topk/tput"
	"kspot/internal/trace"
)

func init() {
	register(Experiment{ID: "e7", Title: "Historic queries: TJA vs TPUT vs centralized", Run: runE7})
	register(Experiment{ID: "e8", Title: "TJA phase anatomy (LB/HJ/CL bytes)", Run: runE8})
}

// historicRun executes one historic operator on a fresh network and
// collects stats.
func historicRun(name string, op topk.HistoricOperator, q topk.HistoricQuery, data topk.HistoricData, n, g int) (stats.RunStats, []model.Answer, error) {
	net, err := gridNetwork(n, g, sim.DefaultOptions())
	if err != nil {
		return stats.RunStats{}, nil, err
	}
	got, err := op.Run(net, q, data)
	if err != nil {
		return stats.RunStats{}, nil, err
	}
	rs := stats.Collect(name, net, 1)
	want := topk.ExactHistoric(data, q)
	if model.EqualAnswers(got, want) {
		rs.Correct = 100
		rs.Recall = 1
	} else {
		rs.Recall = model.Recall(got, want)
	}
	return rs, got, nil
}

// runE7 sweeps window size and k for the three historic algorithms on the
// homogeneous diurnal workload (TPUT's favourable case, so the comparison
// is fair to the baseline).
func runE7(w io.Writer, cfg RunConfig) error {
	const n, g = 36, 6
	src := trace.NewDiurnal(5)
	src.NodeSpread = 0
	src.Noise = 0

	nodes := make([]model.NodeID, 0, n)
	for i := 1; i <= n; i++ {
		nodes = append(nodes, model.NodeID(i))
	}

	var winSeries []stats.Series
	for _, window := range []int{64, 128, 256, 512, 1024} {
		window = cfg.scaled(window)
		data, err := storage.BufferSeries(nodes, window, src.Sample)
		if err != nil {
			return err
		}
		q := topk.HistoricQuery{K: 4, Agg: model.AggAvg, Window: window}
		var rows []stats.RunStats
		for _, o := range []struct {
			name string
			op   topk.HistoricOperator
		}{{"tja", tja.New()}, {"tput", tput.New()}, {"central", central.NewHistoric()}} {
			rs, _, err := historicRun(o.name, o.op, q, data, n, g)
			if err != nil {
				return err
			}
			rows = append(rows, rs)
		}
		winSeries = append(winSeries, stats.Series{X: float64(window), Rows: rows})
		if rows[0].TxBytes >= rows[2].TxBytes {
			fmt.Fprintf(w, "!! SHAPE VIOLATION: tja bytes %d not below centralized %d at W=%d\n",
				rows[0].TxBytes, rows[2].TxBytes, window)
		}
	}
	fmt.Fprint(w, stats.SweepTable("E7a: historic bytes vs window, n=36, k=4", "window", winSeries))

	var kSeries []stats.Series
	window := cfg.scaled(256)
	data, err := storage.BufferSeries(nodes, window, src.Sample)
	if err != nil {
		return err
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		q := topk.HistoricQuery{K: k, Agg: model.AggAvg, Window: window}
		var rows []stats.RunStats
		for _, o := range []struct {
			name string
			op   topk.HistoricOperator
		}{{"tja", tja.New()}, {"tput", tput.New()}, {"central", central.NewHistoric()}} {
			rs, _, err := historicRun(o.name, o.op, q, data, n, g)
			if err != nil {
				return err
			}
			rows = append(rows, rs)
		}
		kSeries = append(kSeries, stats.Series{X: float64(k), Rows: rows})
	}
	fmt.Fprint(w, stats.SweepTable(fmt.Sprintf("E7b: historic bytes vs k, n=36, W=%d", window), "k", kSeries))
	return nil
}

// runE8 breaks TJA's traffic down by phase across k and workload skew.
func runE8(w io.Writer, cfg RunConfig) error {
	const n, g = 36, 6
	window := cfg.scaled(256)
	nodes := make([]model.NodeID, 0, n)
	for i := 1; i <= n; i++ {
		nodes = append(nodes, model.NodeID(i))
	}
	sources := []struct {
		name string
		src  trace.Source
	}{
		{"diurnal(correlated)", func() trace.Source { d := trace.NewDiurnal(5); d.NodeSpread = 0; return d }()},
		{"uniform(adversarial)", &trace.Uniform{Seed: 5, Min: 0, Max: 100}},
		{"walk", trace.NewRandomWalk(5, 0, 100)},
	}
	for _, s := range sources {
		data, err := storage.BufferSeries(nodes, window, s.src.Sample)
		if err != nil {
			return err
		}
		var rows []stats.RunStats
		for _, k := range []int{1, 4, 16} {
			q := topk.HistoricQuery{K: k, Agg: model.AggAvg, Window: window}
			rs, _, err := historicRun(fmt.Sprintf("tja k=%d", k), tja.New(), q, data, n, g)
			if err != nil {
				return err
			}
			if rs.Correct != 100 {
				fmt.Fprintf(w, "!! SHAPE VIOLATION: tja inexact on %s k=%d\n", s.name, k)
			}
			rows = append(rows, rs)
		}
		fmt.Fprint(w, stats.PhaseTable(fmt.Sprintf("E8: TJA phase bytes, %s, W=%d", s.name, window), rows))
	}
	return nil
}
