package topktest

import (
	"fmt"
	"testing"

	"kspot/internal/config"
	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/stats"
	"kspot/internal/topk"
	"kspot/internal/topk/central"
	"kspot/internal/topk/fila"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/naive"
	"kspot/internal/topk/tag"
	"kspot/internal/topk/tja"
	"kspot/internal/topk/tput"
)

// The cross-operator conformance suite: every operator, randomized seeded
// worlds, three environments (lossless, 10% and 30% Bernoulli loss), the
// sequential and the concurrent Parallel bound. The properties:
//
//   - zero loss: the exact operators (MINT, TAG, central, TJA, TPUT)
//     return the true top-k on every world and epoch; FILA's membership is
//     exact; naive's recall is reported and bounded.
//   - loss: recall and message counts are reported; recall never falls
//     below conservative floors and traffic stays within a bounded
//     multiple of the lossless run.
//   - identical fault seeds: Parallel 1 and Parallel 4 produce identical
//     answers and identical traffic counters (run under -race in CI).

const (
	conformanceSeed   = 20090329 // ICDE'09 week; arbitrary but pinned
	conformanceWorlds = 20
	conformanceEpochs = 8
)

var conformanceQuery = topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}

// snapshotOps are the grouped snapshot operators (FILA is handled apart:
// it monitors per-node top-k and needs singleton groups).
var snapshotOps = []struct {
	name  string
	exact bool
	mk    func() topk.SnapshotOperator
}{
	{"mint", true, func() topk.SnapshotOperator { return mint.New() }},
	{"tag", true, func() topk.SnapshotOperator { return tag.New() }},
	{"central", true, func() topk.SnapshotOperator { return central.NewSnapshot() }},
	{"naive", false, func() topk.SnapshotOperator { return naive.New() }},
}

var historicOps = []struct {
	name string
	mk   func() topk.HistoricOperator
}{
	{"tja", func() topk.HistoricOperator { return tja.New() }},
	{"tput", func() topk.HistoricOperator { return tput.New() }},
	{"central", func() topk.HistoricOperator { return central.NewHistoric() }},
}

var historicQuery = topk.HistoricQuery{K: 3, Agg: model.AggAvg, Window: 12}

func TestConformanceZeroLoss(t *testing.T) {
	worlds := Scenarios(conformanceSeed, conformanceWorlds)
	for _, op := range snapshotOps {
		op := op
		t.Run("snapshot/"+op.name, func(t *testing.T) {
			var acc stats.MetricsAccumulator
			for _, scen := range worlds {
				run := RunSnapshot(t, scen, op.mk, 1, nil, conformanceQuery, conformanceEpochs)
				for _, res := range run.Results {
					m := stats.Score(res.Answers, res.Exact)
					acc.Add(m)
					if op.exact && !m.Exact {
						t.Errorf("%s/%s epoch %d: got %v, exact %v", op.name, scen.Name, res.Epoch, res.Answers, res.Exact)
					}
				}
			}
			t.Logf("%s lossless: %v", op.name, &acc)
			if !op.exact && acc.Mean().Recall < 0.80 {
				// Naive is wrong by design, but on clustered rooms it should
				// still find most of the top-k; a collapse signals breakage.
				t.Errorf("%s mean recall %.3f fell below 0.80", op.name, acc.Mean().Recall)
			}
		})
	}

	t.Run("snapshot/fila", func(t *testing.T) {
		var acc stats.MetricsAccumulator
		for _, scen := range worlds {
			run := RunSnapshot(t, SingletonGroups(scen), func() topk.SnapshotOperator { return fila.New() },
				1, nil, conformanceQuery, conformanceEpochs)
			for _, res := range run.Results {
				m := stats.Score(res.Answers, res.Exact)
				acc.Add(m)
				if m.Recall < 1 {
					// FILA's contract: membership exact, scores may be stale.
					t.Errorf("fila/%s epoch %d: membership diverged: got %v, exact %v", scen.Name, res.Epoch, res.Answers, res.Exact)
				}
			}
		}
		t.Logf("fila lossless: %v", &acc)
	})

	for _, op := range historicOps {
		op := op
		t.Run("historic/"+op.name, func(t *testing.T) {
			for _, scen := range worlds {
				run := RunHistoric(t, scen, op.mk, 1, nil, historicQuery)
				if !model.EqualAnswers(run.Answers, run.Exact) {
					t.Errorf("%s/%s: got %v, exact %v", op.name, scen.Name, run.Answers, run.Exact)
				}
			}
		})
	}
}

func TestConformanceUnderLoss(t *testing.T) {
	worlds := Scenarios(conformanceSeed, conformanceWorlds)
	envs := []struct {
		name        string
		loss        float64
		recallFloor float64 // on the mean across all worlds and epochs
	}{
		// The link layer retries each frame up to 3 times, so per-frame
		// delivery is 1−p⁴: 10% loss is nearly transparent, 30% bites.
		// The suite is fully deterministic, so these floors are tight
		// regression tripwires, not statistical guesses.
		{"loss10", 0.10, 0.97},
		{"loss30", 0.30, 0.85},
	}
	for _, env := range envs {
		env := env
		t.Run(env.name, func(t *testing.T) {
			for _, op := range snapshotOps {
				recallFloor := env.recallFloor
				if !op.exact {
					// Naive is wrong by design even lossless; only demand
					// it not collapse further under loss.
					recallFloor = 0.75
				}
				var acc stats.MetricsAccumulator
				msgs, cleanMsgs := 0, 0
				for _, scen := range worlds {
					fcfg := &faults.Config{Seed: int64(1000 + int(env.loss*100)), Loss: env.loss}
					run := RunSnapshot(t, scen, op.mk, 1, fcfg, conformanceQuery, conformanceEpochs)
					clean := RunSnapshot(t, scen, op.mk, 1, nil, conformanceQuery, conformanceEpochs)
					msgs += run.Traffic.Messages
					cleanMsgs += clean.Traffic.Messages
					for _, res := range run.Results {
						acc.Add(stats.Score(res.Answers, res.Exact))
					}
				}
				mean := acc.Mean()
				t.Logf("%s %s: %v, messages %d (lossless %d)", op.name, env.name, &acc, msgs, cleanMsgs)
				if mean.Recall < recallFloor {
					t.Errorf("%s %s: mean recall %.3f below floor %.2f", op.name, env.name, mean.Recall, recallFloor)
				}
				// Loss may add recovery traffic but never unboundedly: the
				// link retries at most MaxRetries times per frame and the
				// operators add no new message classes.
				if msgs > 3*cleanMsgs {
					t.Errorf("%s %s: %d messages vs %d lossless — traffic unbounded under loss", op.name, env.name, msgs, cleanMsgs)
				}
				if msgs == 0 {
					t.Errorf("%s %s: no traffic at all", op.name, env.name)
				}
			}

			// FILA (singleton groups) and the historic operators degrade
			// predictably too: recall reported and floored.
			var filaAcc stats.MetricsAccumulator
			hist := make(map[string]*stats.MetricsAccumulator)
			for _, op := range historicOps {
				hist[op.name] = &stats.MetricsAccumulator{}
			}
			for _, scen := range worlds {
				fcfg := &faults.Config{Seed: int64(1000 + int(env.loss*100)), Loss: env.loss}
				run := RunSnapshot(t, SingletonGroups(scen), func() topk.SnapshotOperator { return fila.New() },
					1, fcfg, conformanceQuery, conformanceEpochs)
				for _, res := range run.Results {
					filaAcc.Add(stats.Score(res.Answers, res.Exact))
				}
				for _, op := range historicOps {
					h := RunHistoric(t, scen, op.mk, 1, fcfg, historicQuery)
					hist[op.name].Add(stats.Score(h.Answers, h.Exact))
				}
			}
			t.Logf("fila %s: %v", env.name, &filaAcc)
			if filaAcc.Mean().Recall < 0.85 {
				t.Errorf("fila %s: mean recall %.3f below floor 0.85", env.name, filaAcc.Mean().Recall)
			}
			for _, op := range historicOps {
				t.Logf("historic %s %s: %v", op.name, env.name, hist[op.name])
				if hist[op.name].Mean().Recall < 0.80 {
					t.Errorf("historic %s %s: mean recall %.3f below floor 0.80", op.name, env.name, hist[op.name].Mean().Recall)
				}
			}
		})
	}
}

// TestConformanceSubstrateEquivalence pins the fault layer's determinism
// contract end to end: with identical fault seeds — loss, duplication,
// delay and churn all armed — the sequential walk (Parallel 1) and the
// level-synchronous one (Parallel 4) must report identical answers, message
// counts and byte counts for every operator. Run under -race in CI.
func TestConformanceSubstrateEquivalence(t *testing.T) {
	worlds := Scenarios(conformanceSeed, conformanceWorlds)
	faultEnv := func(scen *config.Scenario) *faults.Config {
		// Churn the two lowest node ids: die mid-run, one revives.
		a, b := scen.Nodes[0].ID, scen.Nodes[1].ID
		return &faults.Config{
			Seed:      int64(len(scen.Nodes)),
			Loss:      0.10,
			Duplicate: 0.03,
			Delay:     0.03,
			Churn: []faults.ChurnEvent{
				{Node: model.NodeID(a), Epoch: 3, Down: true},
				{Node: model.NodeID(a), Epoch: 6, Down: false},
				{Node: model.NodeID(b), Epoch: 5, Down: true},
			},
		}
	}

	type world struct {
		scen *config.Scenario
		mk   func() topk.SnapshotOperator
	}
	var cases []world
	for _, scen := range worlds {
		for _, op := range snapshotOps {
			cases = append(cases, world{scen, op.mk})
		}
		cases = append(cases, world{SingletonGroups(scen), func() topk.SnapshotOperator { return fila.New() }})
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("%s/%s", c.scen.Name, c.mk().Name())
		t.Run(name, func(t *testing.T) {
			fcfg := faultEnv(c.scen)
			det := RunSnapshot(t, c.scen, c.mk, 1, fcfg, conformanceQuery, conformanceEpochs)
			live := RunSnapshot(t, c.scen, c.mk, 4, fcfg, conformanceQuery, conformanceEpochs)
			for e := range det.Results {
				if !model.EqualAnswers(det.Results[e].Answers, live.Results[e].Answers) {
					t.Fatalf("epoch %d: det %v, live %v", e, det.Results[e].Answers, live.Results[e].Answers)
				}
			}
			if det.Traffic.Messages != live.Traffic.Messages {
				t.Errorf("messages: det %d, live %d", det.Traffic.Messages, live.Traffic.Messages)
			}
			if det.Traffic.TxBytes != live.Traffic.TxBytes {
				t.Errorf("tx bytes: det %d, live %d", det.Traffic.TxBytes, live.Traffic.TxBytes)
			}
			if det.Traffic.Frames != live.Traffic.Frames {
				t.Errorf("frames: det %d, live %d", det.Traffic.Frames, live.Traffic.Frames)
			}
		})
	}

	for _, scen := range worlds {
		for _, op := range historicOps {
			scen, op := scen, op
			t.Run(fmt.Sprintf("historic/%s/%s", scen.Name, op.name), func(t *testing.T) {
				fcfg := &faults.Config{Seed: 9, Loss: 0.10, Duplicate: 0.03}
				det := RunHistoric(t, scen, op.mk, 1, fcfg, historicQuery)
				live := RunHistoric(t, scen, op.mk, 4, fcfg, historicQuery)
				if !model.EqualAnswers(det.Answers, live.Answers) {
					t.Fatalf("answers: det %v, live %v", det.Answers, live.Answers)
				}
				if det.Traffic != live.Traffic {
					t.Errorf("traffic: det %+v, live %+v", det.Traffic, live.Traffic)
				}
			})
		}
	}
}
