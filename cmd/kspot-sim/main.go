// Command kspot-sim runs a KSpot query against a scenario and prints the
// live ranking, the Display Panel and the System Panel — the demo of the
// paper's §IV, in a terminal.
//
// Usage:
//
//	kspot-sim                                  # built-in Figure-3 demo
//	kspot-sim -scenario demo.json -epochs 30
//	kspot-sim -query "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid"
//	kspot-sim -algo tag                        # pin a baseline
//	kspot-sim -emit demo.json                  # write the built-in scenario out
//	kspot-sim -gen-scale 1000 -emit scenarios/scale-1000.json
//	                                           # regenerate a scale-* scenario
//	kspot-sim -shards 2                        # federate: split the cluster
//	                                           # field into 2 shard networks
//	kspot-sim -gen-scale 1000 -shards 4        # generate + run the sharded
//	                                           # scale deployment
//
// Fault injection (see scenarios/README.md; flags override a scenario's
// faults block):
//
//	kspot-sim -loss 0.1 -fault-seed 7          # 10% deterministic frame loss
//	kspot-sim -burst 0.05,0.3,0.6              # Gilbert-Elliott fades
//	kspot-sim -churn 4@10:20 -churn 7@15       # node 4 dies at 10, revives at 20
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"kspot"
)

// churnFlags collects repeatable -churn values: "node@down" kills the node
// at epoch down forever, "node@down:up" revives it at epoch up.
type churnFlags []kspot.ChurnEvent

func (c *churnFlags) String() string { return fmt.Sprint(*c) }

func (c *churnFlags) Set(s string) error {
	node, spans, ok := strings.Cut(s, "@")
	if !ok {
		return fmt.Errorf("churn %q: want node@epoch or node@down:up", s)
	}
	id, err := strconv.ParseUint(node, 10, 16)
	if err != nil {
		return fmt.Errorf("churn %q: bad node id: %v", s, err)
	}
	down, up, revives := strings.Cut(spans, ":")
	de, err := strconv.ParseUint(down, 10, 32)
	if err != nil {
		return fmt.Errorf("churn %q: bad death epoch: %v", s, err)
	}
	*c = append(*c, kspot.ChurnEvent{Node: kspot.NodeID(id), Epoch: kspot.Epoch(de), Down: true})
	if revives {
		ue, err := strconv.ParseUint(up, 10, 32)
		if err != nil {
			return fmt.Errorf("churn %q: bad revival epoch: %v", s, err)
		}
		if ue <= de {
			return fmt.Errorf("churn %q: revival epoch %d must come after death epoch %d", s, ue, de)
		}
		*c = append(*c, kspot.ChurnEvent{Node: kspot.NodeID(id), Epoch: kspot.Epoch(ue), Down: false})
	}
	return nil
}

// parseBurst parses "pGoodBad,pBadGood,lossBad[,lossGood]".
func parseBurst(s string) (*kspot.BurstLossSpec, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 && len(parts) != 4 {
		return nil, fmt.Errorf("burst %q: want pGoodBad,pBadGood,lossBad[,lossGood]", s)
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("burst %q: %v", s, err)
		}
		vals[i] = v
	}
	spec := &kspot.BurstLossSpec{PGoodBad: vals[0], PBadGood: vals[1], LossBad: vals[2]}
	if len(vals) == 4 {
		spec.LossGood = vals[3]
	}
	return spec, nil
}

func main() {
	var churn churnFlags
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON (default: built-in Figure-3 demo)")
		queryText    = flag.String("query", "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min", "query to post")
		epochs       = flag.Int("epochs", 20, "epochs to run (continuous queries)")
		algo         = flag.String("algo", "", "pin algorithm: mint|tag|naive|central|tja|tput")
		emit         = flag.String("emit", "", "write the selected scenario to this file and exit")
		panelEvery   = flag.Int("panel", 5, "render the display panel every N epochs (0 = final only)")
		lossP        = flag.Float64("loss", 0, "deterministic Bernoulli per-frame loss probability [0,1)")
		burstSpec    = flag.String("burst", "", "Gilbert-Elliott loss: pGoodBad,pBadGood,lossBad[,lossGood]")
		dupP         = flag.Float64("dup", 0, "frame duplication probability [0,1)")
		delayP       = flag.Float64("delay", 0, "frame delay probability [0,1)")
		faultSeed    = flag.Int64("fault-seed", 0, "seed for the fault environment")
		genScale     = flag.Int("gen-scale", 0, "generate the scale-<n> scenario (n sensors, multiple of 20) instead of loading one; use with -emit")
		shards       = flag.Int("shards", 0, "federate the deployment into N shard networks (splits the cluster list; with -gen-scale, validates every shard deploys)")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "epoch-sweep worker bound per shard; 1 = exact legacy sequential path (results are byte-identical for every value)")
	)
	flag.Var(&churn, "churn", "node churn: node@epoch (die) or node@down:up (die and revive); repeatable")
	flag.Parse()

	scen := kspot.DemoScenario()
	if *genScale > 0 {
		if *scenarioPath != "" {
			fail(fmt.Errorf("-gen-scale and -scenario are mutually exclusive"))
		}
		var (
			gen *kspot.Scenario
			err error
		)
		if *shards > 1 {
			// The generator validates every shard subfield deploys, so a
			// sharded scale scenario is never emitted (or run) broken.
			gen, err = kspot.ScaleScenarioShards(*genScale, *shards)
		} else {
			gen, err = kspot.ScaleScenario(*genScale)
		}
		if err != nil {
			fail(err)
		}
		scen = gen
	}
	if *scenarioPath != "" {
		loaded, err := kspot.OpenFile(*scenarioPath)
		if err != nil {
			fail(err)
		}
		scen = loaded.Scenario()
	}
	if *shards > 0 && *genScale == 0 {
		if err := scen.AutoShard(*shards); err != nil {
			fail(err)
		}
	}
	switch {
	case *lossP > 0 || *burstSpec != "" || *dupP > 0 || *delayP > 0 || len(churn) > 0:
		cfg := &kspot.FaultConfig{Seed: *faultSeed, Loss: *lossP, Duplicate: *dupP, Delay: *delayP, Churn: churn}
		if *burstSpec != "" {
			spec, err := parseBurst(*burstSpec)
			if err != nil {
				fail(err)
			}
			cfg.Burst = spec
		}
		scen.Faults = cfg // flags override the scenario's faults block
	case *faultSeed != 0:
		// Re-seed the scenario's own fault environment; a bare -fault-seed
		// with nothing to seed would be silently ignored, so reject it.
		if scen.Faults == nil {
			fail(fmt.Errorf("-fault-seed %d has no effect: no fault flags given and the scenario has no faults block", *faultSeed))
		}
		scen.Faults.Seed = *faultSeed
	}
	if *emit != "" {
		if err := scen.Save(*emit); err != nil {
			fail(err)
		}
		fmt.Printf("wrote scenario %q to %s\n", scen.Name, *emit)
		return
	}

	sys, err := kspot.Open(scen, kspot.WithParallel(*parallel))
	if err != nil {
		fail(err)
	}
	cur, err := sys.PostWith(*queryText, kspot.Algorithm(*algo))
	if err != nil {
		fail(err)
	}
	fmt.Printf("scenario: %s (%d sensors)\nquery   : %s\nplan    : %s\n",
		scen.Name, len(scen.Nodes), cur.Query(), cur.Plan())
	if sys.Shards() > 1 {
		fmt.Printf("shards  : %d networks, top-k merged at the coordinator tier (per-shard fault seeds derive from -fault-seed)\n", sys.Shards())
	}
	if env := scen.FaultEnv(); env != nil {
		fmt.Printf("faults  : seed=%d loss=%v burst=%v dup=%v delay=%v churn=%d events\n",
			env.Seed, env.Loss, env.Burst != nil, env.Duplicate, env.Delay, len(env.Churn))
	}
	fmt.Println()

	if !cur.Continuous() {
		answers, err := cur.Run()
		if err != nil {
			fail(err)
		}
		fmt.Println("historic answers (window offset, score):")
		for i, a := range answers {
			fmt.Printf("  %2d. t=%-6d %.2f\n", i+1, a.Group, a.Score)
		}
		if sys.Shards() > 1 {
			// The historic merge is a two-phase threshold round per run:
			// surface its coordinator-tier anatomy next to the answers.
			f := sys.FederationStats()
			fmt.Printf("federated historic merge: %d shard reports, %d targeted fetches (%d instants), %d backhaul bytes\n",
				f.Phase1Msgs, f.Phase2Reqs, f.Fetched, f.TxBytes)
		}
		fmt.Println()
		fmt.Print(sys.SystemPanel(nil))
		return
	}

	var last kspot.Answer
	_ = last
	var lastAnswers []kspot.Answer
	for i := 0; i < *epochs; i++ {
		res, err := cur.Step()
		if err != nil {
			fail(err)
		}
		lastAnswers = res.Answers
		miss := ""
		if !res.Correct {
			miss = "   [diverged from oracle]"
		}
		fmt.Printf("epoch %3d: %s%s\n", res.Epoch, sys.RankingStrip(res.Answers), miss)
		if *panelEvery > 0 && (i+1)%*panelEvery == 0 {
			fmt.Print(sys.DisplayPanel(res.Answers, 72, 18))
		}
	}
	if *panelEvery == 0 {
		fmt.Print(sys.DisplayPanel(lastAnswers, 72, 18))
	}
	fmt.Println()
	fmt.Print(sys.SystemPanel(nil))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kspot-sim:", err)
	os.Exit(1)
}
