package kspot

// The multi-tenant serving acceptance suite: M queries that share a
// sensing signature must ride ONE in-network acquisition per epoch while
// answering byte-identically to M independent deployments — under link
// loss, frame duplication/delay and node churn, sequential and concurrent,
// in the in-process federation and over
// loopback wire shards. The traffic side of the bar is exact: a shared
// run's radio counters equal the sum of one independent run per DISTINCT
// signature, not per query.

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

const sharedEpochs = 4

// sharedFaultEnv is the unreliable world the suite arms on every system it
// compares: Bernoulli loss, duplication, delay, and churn events placed
// inside the stepped epoch range (a death, a second death, a revival).
func sharedFaultEnv() *FaultConfig {
	return &FaultConfig{
		Seed:      42,
		Loss:      0.10,
		Duplicate: 0.05,
		Delay:     0.05,
		Churn: []ChurnEvent{
			{Node: 7, Epoch: 1, Down: true},
			{Node: 350, Epoch: 2, Down: true},
			{Node: 7, Epoch: 3, Down: false},
		},
	}
}

// sharedMember is one posted query of the workload: its SQL spelling and
// the algorithm it is posted under.
type sharedMember struct {
	sql  string
	algo Algorithm
}

// sharedWorkload returns the 16-query workload: 4 distinct sensing
// signatures × 4 equivalent spellings each (case, whitespace, projection
// shape, duration units, AlgoAuto vs explicit MINT). Every member of a
// group carries the same K, so each group's answers must be byte-identical
// to one independent deployment of that group's first member.
func sharedWorkload() [][]sharedMember {
	return [][]sharedMember{
		// Snapshot TOP-K on MINT; AlgoAuto resolves to MINT, so mixing the
		// two must still share one acquisition.
		{
			{"SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto},
			{"select top 3 roomid, avg(sound) from sensors group by roomid", AlgoMINT},
			{"SELECT   TOP 3   AVG( SOUND )  FROM  SENSORS   GROUP BY ROOMID", AlgoAuto},
			{"select top 3 Avg(Sound), RoomId from Sensors group by RoomId", AlgoMINT},
		},
		// Distinct attribute and aggregate; duration-unit folding (60 s ==
		// 1 min == 60000 ms) must not split the group.
		{
			{"SELECT TOP 2 roomid, MAX(temp) FROM sensors GROUP BY roomid EPOCH DURATION 60 s", AlgoAuto},
			{"select top 2 max(temp) from sensors group by roomid epoch duration 1 min", AlgoAuto},
			{"SELECT TOP 2 MAX(TEMP) FROM SENSORS GROUP BY ROOMID EPOCH DURATION 60 SECONDS", AlgoAuto},
			{"Select Top 2 RoomId, Max(Temp) From Sensors Group By RoomId Epoch Duration 60000 ms", AlgoAuto},
		},
		// Same sensing plan as nothing above but pinned to TAG: the
		// algorithm is part of the acquisition key, the spellings are not.
		{
			{"SELECT TOP 4 roomid, AVG(light) FROM sensors GROUP BY roomid", AlgoTAG},
			{"select top 4 roomid, avg(light) from sensors group by roomid", AlgoTAG},
			{"SELECT TOP 4 AVG(LIGHT) FROM SENSORS GROUP BY ROOMID", AlgoTAG},
			{"select top 4 Avg(Light), roomid from sensors group by roomid", AlgoTAG},
		},
		// GROUP BY ... WITH HISTORY rides the snapshot pipeline on derived
		// window-aggregate readings; the history window is part of the key.
		{
			{"SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4", AlgoAuto},
			{"select top 2 avg(sound) from sensors group by roomid with history 4", AlgoAuto},
			{"SELECT TOP 2 AVG(SOUND) FROM SENSORS WITH HISTORY 4 GROUP BY ROOMID", AlgoAuto},
			{"select top 2 roomid, Avg(Sound) from sensors with history 4 group by RoomId", AlgoAuto},
		},
	}
}

// sharedRun is one deployment's view of the full workload: per-member
// per-epoch results plus the deployment's counters.
type sharedRun struct {
	steps [][]StepResult // [member][epoch], members flattened group-major
	stats RunStats
	fed   FederationTraffic
}

// runSharedWorkload posts every member of every group on one System and
// advances them in epoch lock-step.
func runSharedWorkload(t *testing.T, sys *System, epochs int) sharedRun {
	t.Helper()
	var cursors []*Cursor
	for _, group := range sharedWorkload() {
		for _, m := range group {
			cur, err := sys.PostWith(m.sql, m.algo)
			if err != nil {
				t.Fatalf("post %q: %v", m.sql, err)
			}
			cursors = append(cursors, cur)
		}
	}
	run := sharedRun{steps: make([][]StepResult, len(cursors))}
	for e := 0; e < epochs; e++ {
		for i, cur := range cursors {
			res, err := cur.Step()
			if err != nil {
				t.Fatalf("member %d epoch %d: %v", i, e, err)
			}
			run.steps[i] = append(run.steps[i], res)
		}
	}
	run.stats = sys.CaptureStats("shared", epochs)
	run.fed = sys.FederationStats()
	return run
}

// runIndependent opens a fresh deployment per signature group and runs ONE
// member of it — the baseline the shared run must match answer-for-answer
// (every member) and counter-for-counter (summed across groups).
func runIndependent(t *testing.T, openSys func() *System, epochs int) []sharedRun {
	t.Helper()
	var out []sharedRun
	for gi, group := range sharedWorkload() {
		sys := openSys()
		cur, err := sys.PostWith(group[0].sql, group[0].algo)
		if err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
		var steps []StepResult
		for e := 0; e < epochs; e++ {
			res, err := cur.Step()
			if err != nil {
				t.Fatalf("group %d epoch %d: %v", gi, e, err)
			}
			steps = append(steps, res)
		}
		run := sharedRun{
			steps: [][]StepResult{steps},
			stats: sys.CaptureStats("independent", epochs),
			fed:   sys.FederationStats(),
		}
		sys.Close()
		out = append(out, run)
	}
	return out
}

// radioCounters projects the counters the byte-identity bar compares:
// in-network radio traffic. Energy is deliberately excluded — a shared
// deployment idles and senses its epochs once, independents once each.
func radioCounters(s RunStats) [5]int {
	return [5]int{s.Messages, s.Frames, s.TxBytes, s.RxBytes, s.Drops}
}

func sumRadioCounters(runs []sharedRun) [5]int {
	var sum [5]int
	for _, r := range runs {
		c := radioCounters(r.stats)
		for i := range sum {
			sum[i] += c[i]
		}
	}
	return sum
}

// checkSharedAnswers pins every member's per-epoch answers byte-identical
// to its group's independent run.
func checkSharedAnswers(t *testing.T, label string, shared sharedRun, indep []sharedRun) {
	t.Helper()
	groups := sharedWorkload()
	mi := 0
	for gi, group := range groups {
		for _, m := range group {
			stepEqualByteIdentical(t,
				fmt.Sprintf("%s: member %q vs independent group %d", label, m.sql, gi),
				shared.steps[mi], indep[gi].steps[0])
			mi++
		}
	}
}

// TestSharedAcquisitionByteIdentity is the PR acceptance pin: 16 queries
// over 4 distinct sensing signatures on flat scale-1000 with loss,
// duplication, delay and churn armed. Every member answers byte-identically
// to an independent deployment running only its signature, the shared
// deployment's radio traffic equals the sum of the 4 independent runs (one
// per signature — traffic is per-signature, not per-query), and the
// concurrent run (Parallel 4: the four groups acquire at once) reproduces
// the sequential one exactly, its energy ledger total to the bit.
func TestSharedAcquisitionByteIdentity(t *testing.T) {
	openFlat := func(workers int) func() *System {
		return func() *System {
			scen, err := ScaleScenario(1000)
			if err != nil {
				t.Fatal(err)
			}
			scen.Faults = sharedFaultEnv()
			sys, err := Open(scen, WithParallel(workers))
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}

	detSys := openFlat(1)()
	det := runSharedWorkload(t, detSys, sharedEpochs)
	detSys.Close()

	indep := runIndependent(t, openFlat(1), sharedEpochs)
	checkSharedAnswers(t, "det", det, indep)
	if got, want := radioCounters(det.stats), sumRadioCounters(indep); got != want {
		t.Fatalf("shared det radio traffic %v != sum of per-signature independents %v\n"+
			"(msgs, frames, txBytes, rxBytes, drops)", got, want)
	}

	liveSys := openFlat(4)()
	defer liveSys.Close()
	live := runSharedWorkload(t, liveSys, sharedEpochs)
	for mi := range det.steps {
		stepEqualByteIdentical(t, fmt.Sprintf("concurrent member %d vs sequential", mi), live.steps[mi], det.steps[mi])
	}
	if got, want := radioCounters(live.stats), radioCounters(det.stats); got != want {
		t.Fatalf("concurrent shared radio traffic %v != sequential %v", got, want)
	}
	if got, want := math.Float64bits(live.stats.EnergyUJ), math.Float64bits(det.stats.EnergyUJ); got != want {
		t.Fatalf("concurrent ledger total %v µJ != sequential %v µJ", live.stats.EnergyUJ, det.stats.EnergyUJ)
	}
}

// TestSharedAcquisitionFederated extends the byte-identity bar to the
// federated deployment: scale-1000 split 4 ways, same faults (specialized
// per shard by the scenario's derived seeds), 16 shared queries vs 4
// independent federations. The coordinator tier is per-QUERY work — each
// member runs its own merge above the shared acquisition — so its counters
// must equal exactly 4× the per-signature independents' sum, while the
// shard-side radio counters equal the plain sum.
func TestSharedAcquisitionFederated(t *testing.T) {
	openFed := func() *System {
		scen, err := ScaleScenarioShards(1000, 4)
		if err != nil {
			t.Fatal(err)
		}
		scen.Faults = sharedFaultEnv()
		sys, err := Open(scen, WithParallel(runtime.NumCPU()))
		if err != nil {
			t.Fatal(err)
		}
		if sys.Shards() != 4 {
			t.Fatalf("system has %d shards, want 4", sys.Shards())
		}
		return sys
	}

	sys := openFed()
	shared := runSharedWorkload(t, sys, sharedEpochs)
	sys.Close()

	indep := runIndependent(t, openFed, sharedEpochs)
	checkSharedAnswers(t, "federated", shared, indep)
	if got, want := radioCounters(shared.stats), sumRadioCounters(indep); got != want {
		t.Fatalf("shared federated radio traffic %v != sum of independents %v", got, want)
	}

	var want FederationTraffic
	for _, r := range indep {
		const membersPerGroup = 4
		want.Rounds += membersPerGroup * r.fed.Rounds
		want.Phase1Msgs += membersPerGroup * r.fed.Phase1Msgs
		want.Phase2Reqs += membersPerGroup * r.fed.Phase2Reqs
		want.Phase2Msgs += membersPerGroup * r.fed.Phase2Msgs
		want.Fetched += membersPerGroup * r.fed.Fetched
		want.TxBytes += membersPerGroup * r.fed.TxBytes
	}
	if shared.fed != want {
		t.Fatalf("coordinator tier diverged: shared %+v, want 4x independents %+v", shared.fed, want)
	}
	if shared.fed.Rounds == 0 || shared.fed.Phase1Msgs == 0 {
		t.Fatalf("coordinator tier unaccounted: %+v", shared.fed)
	}
}

// TestSharedAcquisitionWire runs the same 16-query workload against 4
// loopback wire shards (real sockets, the whole protocol under -race):
// answers and the coordinator tier must be byte-identical to the
// in-process federation with the identical faults armed, and the shard
// counters fetched over the wire must reconcile message for message.
func TestSharedAcquisitionWire(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1000 wire conformance in -short mode")
	}
	faultyScen := func() *Scenario {
		scen, err := ScaleScenarioShards(1000, 4)
		if err != nil {
			t.Fatal(err)
		}
		scen.Faults = sharedFaultEnv()
		return scen
	}

	inprocSys, err := Open(faultyScen(), WithParallel(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	defer inprocSys.Close()
	inproc := runSharedWorkload(t, inprocSys, sharedEpochs)

	addrs, _ := startWireShards(t, faultyScen(), runtime.NumCPU())
	remote, err := OpenFederated(faultyScen(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	got := runSharedWorkload(t, remote, sharedEpochs)

	for mi := range inproc.steps {
		stepEqualByteIdentical(t, fmt.Sprintf("wire member %d vs in-process", mi), got.steps[mi], inproc.steps[mi])
	}
	if got.fed != inproc.fed {
		t.Fatalf("coordinator tier diverged: wire %+v, in-process %+v", got.fed, inproc.fed)
	}
	remoteRows, err := remote.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	inprocRows, err := inprocSys.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(remoteRows) != len(inprocRows) {
		t.Fatalf("%d remote stat rows vs %d", len(remoteRows), len(inprocRows))
	}
	for i := range remoteRows {
		r, p := remoteRows[i], inprocRows[i]
		if r.Messages != p.Messages || r.Frames != p.Frames ||
			r.TxBytes != p.TxBytes || r.RxBytes != p.RxBytes || r.Drops != p.Drops {
			t.Fatalf("shard %d counters diverged:\nwire       %+v\nin-process %+v", i, r, p)
		}
	}
}

// TestSharedAcquisitionWidening: a later same-signature post with a deeper
// K widens the group — both cursors keep stepping, each is cut to its own
// K, and answers stay oracle-exact on the clean demo deployment. Closing
// the wide cursor leaves the narrow one serving; closing the last member
// dissolves the group so a fresh post re-attaches cleanly.
func TestSharedAcquisitionWidening(t *testing.T) {
	sys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if res, err := narrow.Step(); err != nil || !res.Correct {
			t.Fatalf("narrow pre-widen epoch %d: err=%v res=%+v", e, err, res)
		}
	}
	wide, err := sys.Post("select top 4 roomid, avg(sound) from sensors group by roomid")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		nres, err := narrow.Step()
		if err != nil {
			t.Fatal(err)
		}
		wres, err := wide.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(nres.Answers) > 2 || len(wres.Answers) > 4 {
			t.Fatalf("per-member cut violated: narrow %d answers, wide %d", len(nres.Answers), len(wres.Answers))
		}
		if !nres.Correct || !wres.Correct {
			t.Fatalf("answers diverged from oracle after widening: narrow %+v wide %+v", nres, wres)
		}
		if len(wres.Answers) <= len(nres.Answers) {
			t.Fatalf("widened acquisition not deeper: narrow %d answers, wide %d", len(nres.Answers), len(wres.Answers))
		}
	}
	wide.Close()
	if res, err := narrow.Step(); err != nil || !res.Correct {
		t.Fatalf("narrow cursor broken after wide member closed: err=%v res=%+v", err, res)
	}
	narrow.Close()
	fresh, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := fresh.Step(); err != nil || !res.Correct {
		t.Fatalf("re-post after group dissolved: err=%v res=%+v", err, res)
	}
}
