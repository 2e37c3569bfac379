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
// A fault environment (loss, bursts, duplication, delay, churn) is the
// scenario's faults block; see scenarios/README.md and scenarios/lossy-*.json:
//
//	kspot-sim -scenario scenarios/lossy-burst.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"kspot"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON (default: built-in Figure-3 demo)")
		queryText    = flag.String("query", "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min", "query to post")
		epochs       = flag.Int("epochs", 20, "epochs to run (continuous queries)")
		algo         = flag.String("algo", "", "pin algorithm: mint|tag|naive|central|tja|tput")
		emit         = flag.String("emit", "", "write the selected scenario to this file and exit")
		panelEvery   = flag.Int("panel", 5, "render the display panel every N epochs (0 = final only)")
		genScale     = flag.Int("gen-scale", 0, "generate the scale-<n> scenario (n sensors, multiple of 20) instead of loading one; use with -emit")
		shards       = flag.Int("shards", 0, "federate the deployment into N shard networks (splits the cluster list; with -gen-scale, validates every shard deploys)")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "concurrency bound per shard: concurrent query groups, background presampling and sweep workers above 1; 1 = the sequential reference on one goroutine")
	)
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
		fmt.Printf("shards  : %d networks, top-k merged at the coordinator tier\n", sys.Shards())
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
