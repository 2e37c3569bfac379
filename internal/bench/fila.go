package bench

import (
	"fmt"
	"io"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/topk"
	"kspot/internal/topk/fila"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/tag"
	"kspot/internal/trace"
)

func init() {
	register(Experiment{ID: "e14", Title: "Extension: FILA filters vs MINT vs TAG (per-node monitoring)", Run: runE14})
}

// runE14 compares the filter-based monitoring approach (FILA, cited by the
// paper as MINT's competitor class) against MINT and TAG on the per-node
// top-k problem, across workload stability. FILA's contract is exact
// membership with possibly stale member scores, so the table reports both
// set-correctness and exact-correctness.
func runE14(w io.Writer, cfg RunConfig) error {
	epochs := cfg.scaled(100)
	const n = 64
	// Part A: room-activity workload — the membership boundary sits in
	// dense values and churns; FILA stays set-exact and far under TAG,
	// with MINT slightly ahead (its margin absorbs boundary wobble).
	if err := runE14Churn(w, epochs, n, 4); err != nil {
		return err
	}
	// Part B: a static skewed field (Zipf, low noise) — values barely
	// move, so FILA's filters go silent while MINT still re-reports its
	// answer set every epoch: the regime where filters win outright.
	return runE14Static(w, epochs, n, 4)
}

// runE14Churn runs the comparison on the jittering room-activity workload.
func runE14Churn(w io.Writer, epochs, n, k int) error {
	for _, period := range []uint32{20, 5} {
		var rows []stats.RunStats
		for _, o := range []struct {
			name string
			op   topk.SnapshotOperator
		}{{"fila", fila.New()}, {"mint", mint.New()}, {"tag", tag.New()}} {
			net, err := gridNetwork(n, n, sim.DefaultOptions())
			if err != nil {
				return err
			}
			net.Placement.RegroupRoundRobin(n)
			src := trace.NewRoomActivity(7, net.Placement.Groups, n)
			src.Period = model.Epoch(period)
			q := topk.SnapshotQuery{K: k, Agg: model.AggAvg, Range: soundRange()}

			// Manual run so we can score set-correctness for FILA.
			if err := o.op.Attach(net, q); err != nil {
				return err
			}
			warm := engine.SenseEpoch(net, src, 0)
			if _, err := o.op.Epoch(0, warm); err != nil {
				return err
			}
			net.Reset()
			exactPct, setPct := 0, 0
			for e := model.Epoch(1); int(e) <= epochs; e++ {
				readings := engine.SenseEpoch(net, src, e)
				got, err := o.op.Epoch(e, readings)
				if err != nil {
					return err
				}
				want := topk.ExactSnapshot(readings, q)
				if model.EqualAnswers(got, want) {
					exactPct++
				}
				if fila.SetCorrect(got, want) {
					setPct++
				}
			}
			rs := stats.Collect(o.name, net, epochs)
			rs.Correct = 100 * float64(exactPct) / float64(epochs)
			rs.Recall = float64(setPct) / float64(epochs) // set-correct fraction
			rows = append(rows, rs)
		}
		fmt.Fprint(w, stats.Table(
			fmt.Sprintf("E14a: per-node top-%d, room activity, churn period %d, %d epochs (recall column = set-correct fraction)",
				k, period, epochs), rows))
		byName := map[string]stats.RunStats{}
		for _, r := range rows {
			byName[r.Algorithm] = r
		}
		if 2*byName["fila"].TxBytes >= byName["tag"].TxBytes {
			fmt.Fprintf(w, "!! SHAPE VIOLATION: fila bytes %d not under half of tag %d\n", byName["fila"].TxBytes, byName["tag"].TxBytes)
		}
		if byName["fila"].Recall < 0.99 {
			fmt.Fprintf(w, "!! SHAPE VIOLATION: fila set-correct only %.2f\n", byName["fila"].Recall)
		}
		if byName["mint"].Correct < 100 {
			fmt.Fprintf(w, "!! SHAPE VIOLATION: mint not exact\n")
		}
	}
	return nil
}

// runE14Static runs the comparison on a near-static Zipf field.
func runE14Static(w io.Writer, epochs, n, k int) error {
	var rows []stats.RunStats
	for _, o := range []struct {
		name string
		op   topk.SnapshotOperator
	}{{"fila", fila.New()}, {"mint", mint.New()}, {"tag", tag.New()}} {
		net, err := gridNetwork(n, n, sim.DefaultOptions())
		if err != nil {
			return err
		}
		net.Placement.RegroupRoundRobin(n)
		src := trace.NewZipf(9, net.Placement.Groups, 1.5, 1000)
		src.Noise = 2 // a calm field: readings barely move
		q := topk.SnapshotQuery{K: k, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 1100}}

		if err := o.op.Attach(net, q); err != nil {
			return err
		}
		warm := engine.SenseEpoch(net, src, 0)
		if _, err := o.op.Epoch(0, warm); err != nil {
			return err
		}
		net.Reset()
		exactPct, setPct := 0, 0
		for e := model.Epoch(1); int(e) <= epochs; e++ {
			readings := engine.SenseEpoch(net, src, e)
			got, err := o.op.Epoch(e, readings)
			if err != nil {
				return err
			}
			want := topk.ExactSnapshot(readings, q)
			if model.EqualAnswers(got, want) {
				exactPct++
			}
			if fila.SetCorrect(got, want) {
				setPct++
			}
		}
		rs := stats.Collect(o.name, net, epochs)
		rs.Correct = 100 * float64(exactPct) / float64(epochs)
		rs.Recall = float64(setPct) / float64(epochs)
		rows = append(rows, rs)
	}
	fmt.Fprint(w, stats.Table(
		fmt.Sprintf("E14b: per-node top-%d, static Zipf field, %d epochs (recall column = set-correct fraction)", k, epochs), rows))
	byName := map[string]stats.RunStats{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	if byName["fila"].TxBytes >= byName["mint"].TxBytes {
		fmt.Fprintf(w, "!! SHAPE VIOLATION: static-field fila bytes %d not below mint %d\n", byName["fila"].TxBytes, byName["mint"].TxBytes)
	}
	if byName["fila"].Recall < 0.99 {
		fmt.Fprintf(w, "!! SHAPE VIOLATION: fila set-correct only %.2f\n", byName["fila"].Recall)
	}
	return nil
}
