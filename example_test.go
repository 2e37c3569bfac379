package kspot_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"kspot"
)

// Open the paper's Figure 3 conference site (14 sensors in six clusters),
// post its §I query verbatim — KSpot's dialect is case-insensitive — and
// watch the loudest room for ten epochs. The router plans the snapshot
// query onto MINT, and the System Panel shows what the ten epochs cost.
func ExampleOpen() {
	sys, err := kspot.Open(kspot.DemoScenario())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", cur.Query())
	fmt.Println("plan :", cur.Plan())
	var res kspot.StepResult
	for i := 0; i < 10; i++ {
		if res, err = cur.Step(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("epoch %d: %s\n", res.Epoch, sys.RankingStrip(res.Answers))
	fmt.Print(sys.SystemPanel(nil))
	// Output:
	// query: SELECT TOP 1 ROOMID, AVG(SOUND) FROM SENSORS GROUP BY ROOMID EPOCH DURATION 1 min
	// plan : snapshot/mint
	// epoch 9: 1. Lobby (83.53)
	// +--------------- SYSTEM PANEL ---------------+
	// | algorithm : total                          |
	// | epochs    : 10                             |
	// | messages  : 240                            |
	// | frames    : 318                            |
	// | tx bytes  : 7290                           |
	// | energy    : 280.67                      mJ |
	// +--------------------------------------------+
}

// The §III-B vertically fragmented query — the K time instants with the
// highest average temperature — answered by TJA, TPUT and the centralized
// baseline over the same buffered windows. All three are exact, so they
// agree; what differs is the traffic: TJA joins partial results inside the
// network, while TPUT and the centralized baseline relay every byte hop by
// hop to the sink.
func ExampleCursor_Run() {
	const sql = "SELECT TOP 5 timeinstant, AVG(temp) FROM sensors WITH HISTORY 256"
	scen := kspot.DemoScenario()
	scen.Workload.Kind = "diurnal"
	var first []kspot.Answer
	fmt.Printf("%-8s %9s %9s\n", "algo", "messages", "tx-bytes")
	for _, algo := range []kspot.Algorithm{kspot.AlgoTJA, kspot.AlgoTPUT, kspot.AlgoCentral} {
		sys, err := kspot.Open(scen)
		if err != nil {
			log.Fatal(err)
		}
		cur, err := sys.PostWith(sql, algo)
		if err != nil {
			log.Fatal(err)
		}
		answers, err := cur.Run()
		if err != nil {
			log.Fatal(err)
		}
		if first == nil {
			first = answers
		} else if !slices.Equal(answers, first) {
			fmt.Printf("%s disagrees: %v\n", algo, answers)
		}
		st := sys.CaptureStats(string(algo), 1)
		fmt.Printf("%-8s %9d %9d\n", algo, st.Messages, st.TxBytes)
		sys.Close()
	}
	fmt.Println("top-5 time instants (window offset, AVG temperature):")
	for i, a := range first {
		fmt.Printf("%d. t=%-4d %.2f °F\n", i+1, a.Group, a.Score)
	}
	// Output:
	// algo      messages  tx-bytes
	// tja             42      9973
	// tput            90     72886
	// central         38     72466
	// top-5 time instants (window offset, AVG temperature):
	// 1. t=144  85.33 °F
	// 2. t=143  85.24 °F
	// 3. t=145  85.01 °F
	// 4. t=48   84.98 °F
	// 5. t=240  84.97 °F
}

// The System Panel of the ICDE'09 demo (§IV): KSpot/MINT's steady-state
// savings over TinyDB/TAG across K, each algorithm on its own deployment
// for 100 epochs with the first — query install and MINT's creation phase
// — excluded. On this 14-node site the flagship K=1 query saves about a
// third of TAG's bytes; as K approaches the cluster count the suppressible
// set vanishes and the two meet.
func ExampleSystem_SystemPanel() {
	const epochs = 100
	measure := func(algo kspot.Algorithm, k int) *kspot.System {
		sys, err := kspot.Open(kspot.DemoScenario())
		if err != nil {
			log.Fatal(err)
		}
		cur, err := sys.PostWith(fmt.Sprintf("SELECT TOP %d roomid, AVG(sound) FROM sensors GROUP BY roomid", k), algo)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			if _, err := cur.Step(); err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				sys.ResetAccounting()
			}
		}
		return sys
	}
	var panel string
	fmt.Printf("%s %10s %10s %7s\n", "k", "mint bytes", "tag bytes", "saved")
	for _, k := range []int{1, 2, 3} {
		mint, tag := measure(kspot.AlgoMINT, k), measure(kspot.AlgoTAG, k)
		m, t := mint.CaptureStats("mint", epochs-1), tag.CaptureStats("tag", epochs-1)
		fmt.Printf("%d %10d %10d %6.1f%%\n", k, m.TxBytes, t.TxBytes, 100*(1-float64(m.TxBytes)/float64(t.TxBytes)))
		if k == 1 {
			panel = mint.SystemPanel(&t)
		}
		mint.Close()
		tag.Close()
	}
	fmt.Print(panel)
	// Output:
	// k mint bytes  tag bytes   saved
	// 1      43384      66429   34.7%
	// 2      66134      66429    0.4%
	// 3      67145      66429   -1.1%
	// +--------------- SYSTEM PANEL ---------------+
	// | algorithm : total                          |
	// | epochs    : 99                             |
	// | messages  : 1441                           |
	// | frames    : 1876                           |
	// | tx bytes  : 43384                          |
	// | energy    : 1699.36                     mJ |
	// | vs tag:                                    |
	// |   message savings : -4.0                 % |
	// |   frame savings   : 24.2                 % |
	// |   byte savings    : 34.7                 % |
	// |   energy savings  : 30.0                 % |
	// +--------------------------------------------+
}

// The paper's own counterexample (§III-A, Figure 1): greedy local pruning
// reports room D at 76.5, while MINT's exact pruning reports the true
// loudest room. Then the habitat-monitoring workload the introduction
// cites — a Top-2 AVG(temperature) per region over one simulated day of a
// diurnal field at 15-minute epochs — stays exact in every epoch.
func ExampleFigure1Scenario() {
	const sql = "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	for _, algo := range []kspot.Algorithm{kspot.AlgoMINT, kspot.AlgoNaive} {
		sys, err := kspot.Open(kspot.Figure1Scenario())
		if err != nil {
			log.Fatal(err)
		}
		cur, err := sys.PostWith(sql, algo)
		if err != nil {
			log.Fatal(err)
		}
		res, err := cur.Step()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %v correct: %v\n", algo, res.Answers, res.Correct)
		sys.Close()
	}

	scen := kspot.DemoScenario()
	scen.Workload.Kind = "diurnal"
	sys, err := kspot.Open(scen)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 2 roomid, AVG(temp) FROM sensors GROUP BY roomid EPOCH DURATION 15 min")
	if err != nil {
		log.Fatal(err)
	}
	const day = 96
	exact := 0
	for i := 0; i < day; i++ {
		res, err := cur.Step()
		if err != nil {
			log.Fatal(err)
		}
		if res.Correct {
			exact++
		}
		if i == day/2 {
			fmt.Printf("noon: %s\n", sys.RankingStrip(res.Answers))
		}
	}
	fmt.Printf("exact epochs: %d/%d\n", exact, day)
	// Output:
	// mint  [(g3, 75.00)] correct: true
	// naive [(g4, 76.50)] correct: false
	// noon: 1. Conference Room 2 (88.62)  2. Lobby (86.47)
	// exact epochs: 96/96
}

// walk is a zebra's 48-fix GPS track: a seeded random walk, plus the herd's
// drift to the northeast for a herd member.
func walk(seed int64, herd bool) [48][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	var track [48][2]float64
	var x, y float64
	for t := range track {
		x, y = x+rng.Float64()*2-1, y+rng.Float64()*2-1
		if herd {
			track[t] = [2]float64{x + float64(t)*0.4, y + float64(t)*0.2}
		} else {
			track[t] = [2]float64{x, y}
		}
	}
	return track
}

// ZebraNet, the paper's §I spatio-temporal example: find the K zebras
// whose trajectories are most similar to zebra X's. Each collar buffers
// its own track and scores it locally against X's broadcast trajectory —
// one number, 100 minus the mean point-wise distance — and the in-network
// Top-K finds the K most similar animals; the collars of dissimilar zebras
// never transmit their tracks. A scenario is plain data: here the
// conference site's 14 positions carry 14 collars, each zebra is its own
// cluster, and a fixture workload holds each collar's score.
func ExampleScenario() {
	x := walk(0, true)
	scen := kspot.DemoScenario()
	scen.Name = "zebranet"
	scen.Clusters = nil
	scen.Workload.Kind = "fixture"
	scen.Workload.Fixture = map[string][]float64{}
	for i := range scen.Nodes {
		z := scen.Nodes[i].ID
		track := walk(int64(z), z <= 5) // zebras 1-5 travel with X's herd
		var dist float64
		for t := range track {
			dist += math.Hypot(track[t][0]-x[t][0], track[t][1]-x[t][1])
		}
		scen.Nodes[i].Cluster = z
		scen.Clusters = append(scen.Clusters, kspot.Cluster{ID: z, Name: fmt.Sprintf("zebra %d", z)})
		scen.Workload.Fixture[strconv.Itoa(int(z))] = []float64{100 - dist/float64(len(track))}
	}
	sys, err := kspot.Open(scen)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	cur, err := sys.Post("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		log.Fatal(err)
	}
	res, err := cur.Step()
	if err != nil {
		log.Fatal(err)
	}
	st := sys.CaptureStats("mint", 1)
	fmt.Println(sys.RankingStrip(res.Answers))
	fmt.Println("exact:", res.Correct)
	fmt.Printf("traffic: %d messages, %d bytes; uploading every track would ship %d bytes\n",
		st.Messages, st.TxBytes, len(scen.Nodes)*len(x)*8)
	// Output:
	// 1. zebra 1 (96.45)  2. zebra 4 (95.58)  3. zebra 3 (94.89)
	// exact: true
	// traffic: 42 messages, 1371 bytes; uploading every track would ship 5376 bytes
}
