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

// sharedWorkload returns the 16-query workload: 4 distinct sensing
// signatures × 4 equivalent spellings each (case, whitespace, projection
// shape, duration units, AlgoAuto vs explicit MINT). Every member of a
// group carries the same K, so each group's answers must be byte-identical
// to one independent deployment of that group's first member.
func sharedWorkload() [][]rowQuery {
	return [][]rowQuery{
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

// sharedRow is the workload on scale-1000 split the given number of ways,
// the fault environment armed.
func sharedRow(name string, shards, parallel int) row {
	r := row{name: name, world: "scale-1000", shards: shards, parallel: parallel, faults: sharedFaultEnv(),
		epochs: sharedEpochs, checks: []check{sharedLikeIndependents}}
	for _, group := range sharedWorkload() {
		r.queries = append(r.queries, group...)
	}
	return r
}

// sharedLikeIndependents: every member answers byte-identically to an
// independent deployment running only its group's first member; the
// shared run's radio traffic is the sum of those independents' (traffic
// is per signature, not per query); and the coordinator tier, per-query
// work (each member runs its own merge above the shared acquisition),
// is 4× their sum.
func sharedLikeIndependents(t *testing.T, r row, _ *System, got outcome) {
	var radio [5]int
	var fed FederationTraffic
	for gi, group := range sharedWorkload() {
		solo := r.twin()
		solo.queries = group[:1]
		ind := memo(t, solo)
		for mi, m := range group {
			stepEqualByteIdentical(t, fmt.Sprintf("member %q vs independent group %d", m.sql, gi),
				got.steps[gi*len(group)+mi], ind.steps[0])
		}
		for i, v := range radioCounters(ind.capture) {
			radio[i] += v
		}
		const members = 4
		fed.Rounds += members * ind.fed.Rounds
		fed.Phase1Msgs += members * ind.fed.Phase1Msgs
		fed.Phase2Reqs += members * ind.fed.Phase2Reqs
		fed.Phase2Msgs += members * ind.fed.Phase2Msgs
		fed.Fetched += members * ind.fed.Fetched
		fed.TxBytes += members * ind.fed.TxBytes
	}
	if radioCounters(got.capture) != radio {
		t.Fatalf("shared radio traffic %v != sum of per-signature independents %v\n"+
			"(msgs, frames, txBytes, rxBytes, drops)", radioCounters(got.capture), radio)
	}
	if got.fed != fed {
		t.Fatalf("coordinator tier diverged: shared %+v, want 4x independents %+v", got.fed, fed)
	}
}

// TestSharedAcquisitionByteIdentity is the shared-acquisition acceptance
// pin: 16 queries over 4 distinct sensing signatures on flat scale-1000
// with loss, duplication, delay and churn armed answer like independent
// deployments of their signatures, and the concurrent run (Parallel 4:
// the four groups acquire at once) reproduces the sequential one exactly,
// its energy ledger to the bit.
func TestSharedAcquisitionByteIdentity(t *testing.T) {
	runRows(t, []row{sharedRow("flat", 1, 4)})
}

// TestSharedAcquisitionFederated extends the bar to the federated
// deployment: scale-1000 split 4 ways, the same faults (specialized per
// shard by the scenario's derived seeds).
func TestSharedAcquisitionFederated(t *testing.T) {
	runRows(t, []row{sharedRow("shards=4", 4, runtime.NumCPU())})
}

// TestSharedAcquisitionWire runs the same workload against 4 loopback wire
// shards (real sockets, the whole protocol under -race): answers, the
// coordinator tier and the shard counters the replies carried equal the
// in-process federation's with the identical faults armed.
func TestSharedAcquisitionWire(t *testing.T) {
	r := sharedRow("wire", 4, runtime.NumCPU())
	r.wire, r.long = true, true
	runRows(t, []row{r})
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
