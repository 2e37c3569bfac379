package kspot

// The shard contract's conformance table: one script, every call of
// shardHandle, driven against the in-process shard body and against a
// wire.Client talking to a wire.Server over loopback — the two hosts a
// System ever holds a handle on. Readings, answers, errors-or-not, stats
// rows, storage blocks and state images must be equal: the served shard IS
// the in-process body, behind a codec.

import (
	"reflect"
	"testing"

	"kspot/internal/model"
	"kspot/internal/shard"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/wire"
)

// contractStep is one call's observable outcome.
type contractStep struct {
	Call     string
	Failed   bool
	Readings map[model.NodeID]model.Reading
	Groups   []contractGroup
	Answers  []model.Answer
	Nodes    int
	Sums     map[model.GroupID]int64
	Stats    stats.RunStats
	Storage  storage.StoreStats
	Image    []byte
}

// contractGroup is one query's slice of an epoch round.
type contractGroup struct {
	Failed   bool
	Answers  []model.Answer
	Override map[model.NodeID]model.Reading
}

// runShardContract drives the whole contract against one handle and
// records what came back.
func runShardContract(h shardHandle) []contractStep {
	const (
		narrow   = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"
		wide     = "SELECT TOP 4 roomid, AVG(sound) FROM sensors GROUP BY roomid"
		windowed = "SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid WITH HISTORY 4"
		historic = "SELECT TOP 3 epoch, AVG(sound) FROM sensors WITH HISTORY 8"
	)
	var out []contractStep
	call := func(name string, err error) *contractStep {
		out = append(out, contractStep{Call: name, Failed: err != nil})
		return &out[len(out)-1]
	}
	epoch := model.Epoch(0)
	round := func(name string, queries ...uint32) {
		readings, results, err := h.EpochRound(epoch, queries)
		epoch++
		st := call(name, err)
		st.Readings = readings
		for _, r := range results {
			st.Groups = append(st.Groups, contractGroup{Failed: r.Err != nil, Answers: r.Acq.Answers, Override: r.Acq.Readings})
		}
	}

	call("attach", h.Attach(1, "mint", narrow))
	call("attach derived-readings query", h.Attach(2, "tag", windowed))
	call("attach unknown algorithm", h.Attach(3, "bogus", narrow))
	call("attach bad sql", h.Attach(3, "mint", "SELEKT nonsense"))
	call("attach historic query", h.Attach(3, "tja", historic))
	for i := 0; i < 5; i++ {
		round("round", 1, 2)
	}
	round("round naming an unattached id", 1, 77)
	call("re-attach at a wider K", h.Attach(4, "mint", wide))
	call("detach", h.Detach(1))
	round("round on the wider attachment", 4, 2)
	round("round naming the detached id", 1)
	call("detach", h.Detach(4))
	call("detach", h.Detach(2))
	call("detach unknown id", h.Detach(99))

	q := topk.HistoricQuery{K: 3, Agg: model.AggSum, Window: 8}
	answers, nodes, err := h.HistoricTopK(7, "tja", q)
	st := call("historic top-k", err)
	st.Answers, st.Nodes = answers, nodes
	_, _, err = h.HistoricTopK(8, "bogus", q)
	call("historic unknown algorithm", err)
	_, _, err = h.HistoricTopK(8, "tja", topk.HistoricQuery{K: 0, Agg: model.AggSum, Window: 8})
	call("historic invalid query", err)
	ids := []model.GroupID{0, 3, 7}
	sums, err := h.FetchSums(7, ids)
	call("fetch sums", err).Sums = sums
	call("release", h.Release(7))
	_, err = h.FetchSums(7, ids)
	call("fetch on a released execution", err)
	call("release unknown execution", h.Release(99))

	row, err := h.Stats()
	call("stats", err).Stats = row
	block, err := h.StorageStats()
	call("storage stats", err).Storage = block
	img, err := h.Snapshot()
	call("snapshot", err).Image = img
	call("restore", h.Restore(img))
	call("restore garbage", h.Restore([]byte("not a shard state")))
	row, err = h.Stats()
	call("stats after restore", err).Stats = row
	return out
}

// TestShardContractConformance runs the script on both hosts of shard 0 of
// the 2-shard demo — sequential, concurrent ("live": Parallel 4) and with a
// fault environment armed — and requires the transcripts to be equal step
// for step; each row's System-level run holds the served federation to
// the in-process one besides.
func TestShardContractConformance(t *testing.T) {
	det := row{name: "deterministic", world: "demo", shards: 2, parallel: 1, wire: true, epochs: 4,
		queries: []rowQuery{{sql: demoSQL}}, checks: []check{contractTranscript}}
	live, faulty := det, det
	live.name, live.parallel = "live", 4
	faulty.name, faulty.faults = "faulty", &FaultConfig{Seed: 9, Loss: 0.1, Churn: []ChurnEvent{{Node: 5, Epoch: 2, Down: true}}}
	runRows(t, []row{det, live, faulty})
}

// contractTranscript drives the contract script against the in-process
// body of the row's shard 0 and against a wire client of a server hosting
// it, and requires equal transcripts that exercised what they claim to.
func contractTranscript(t *testing.T, r row, _ *System, _ outcome) {
	// In process: the body itself, on the memory-backed durable tier a
	// shard server gives its own.
	store, err := storage.OpenStore("", storage.DefaultStoreWindow)
	if err != nil {
		t.Fatal(err)
	}
	body, err := shard.New(shard.Config{Scenario: r.scenario(t), Shard: 0, Parallel: r.parallel, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	want := runShardContract(body)

	// Over the wire: the same body behind a server, reached through a
	// client.
	addrs, _ := startWireShards(t, r.scenario(t), r.parallel)
	cl, err := wire.Dial(wire.ClientConfig{Addr: addrs[0], Scenario: r.scenario(t).Name,
		Shard: 0, Shards: 2, Nodes: len(body.Roster()), Roster: body.Roster()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got := runShardContract(cl)

	if len(got) != len(want) {
		t.Fatalf("%d steps over the wire, %d in process", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("step %d (%s) diverged:\nwire       %+v\nin-process %+v", i, want[i].Call, got[i], want[i])
		}
	}

	// The script exercised what it claims to: rounds answered, the
	// derived-readings query overrode its inputs, the isolated failures
	// were failures and everything else was not.
	failed := map[string]bool{"attach unknown algorithm": true, "attach bad sql": true, "attach historic query": true,
		"historic unknown algorithm": true, "historic invalid query": true, "fetch on a released execution": true,
		"restore garbage": true}
	for _, st := range want {
		if st.Failed != failed[st.Call] {
			t.Errorf("%s: failed=%v", st.Call, st.Failed)
		}
		switch st.Call {
		case "round":
			if len(st.Readings) == 0 || len(st.Groups) != 2 || len(st.Groups[0].Answers) != 2 || st.Groups[0].Override != nil || st.Groups[1].Override == nil {
				t.Errorf("round: %+v", st)
			}
		case "round naming an unattached id", "round naming the detached id":
			if last := st.Groups[len(st.Groups)-1]; !last.Failed {
				t.Errorf("%s: the unattached group did not fail: %+v", st.Call, st)
			}
		case "round on the wider attachment":
			if len(st.Groups[0].Answers) != 3 { // shard 0 of the split demo holds 3 clusters
				t.Errorf("wider attachment ranked %d groups, want 3", len(st.Groups[0].Answers))
			}
		case "historic top-k":
			if len(st.Answers) != 3 || st.Nodes != len(body.Roster()) {
				t.Errorf("historic top-k: %+v", st)
			}
		case "fetch sums":
			if len(st.Sums) != 3 {
				t.Errorf("fetch sums: %+v", st.Sums)
			}
		case "stats":
			if st.Stats.Messages == 0 || st.Stats.Algorithm != "shard-0" {
				t.Errorf("stats: %+v", st.Stats)
			}
		case "storage stats":
			if st.Storage.Nodes != len(body.Roster()) || !st.Storage.HasEpoch || st.Storage.LastEpoch != 7 {
				t.Errorf("storage stats: %+v", st.Storage)
			}
		}
	}
}
