package kspot

// Live elastic re-sharding conformance: a remote federation migrated
// 2→4→2 shards mid-run — posted cursors stepping throughout, one leg with
// a cursor stepping concurrently with the migration — must answer every
// epoch byte-identically to the flat simulation, with recall pinned at
// 1.0 through the move (stats.Score per epoch against the oracle), the
// durable windows and energy ledgers carried bit-exact onto the targets,
// and a post-migration historic run equal to the flat one.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kspot/internal/model"
	"kspot/internal/stats"
	"kspot/internal/storage"
)

const (
	reshardNodes = 320 // 16 clusters — splits 2 and 4 ways
	reshardSQLA  = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"
	reshardSQLB  = "SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid"
)

func reshardScen(t *testing.T, shards int) *Scenario {
	t.Helper()
	scen, err := ScaleScenarioShards(reshardNodes, shards)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

// stepScored steps a cursor once, requiring recall 1.0 against the
// oracle (the migration must not cost a single answer).
func stepScored(cur *Cursor) (StepResult, error) {
	res, err := cur.Step()
	if m := stats.Score(res.Answers, res.Exact); err == nil && m.Recall != 1 {
		err = fmt.Errorf("epoch %d: recall %v (answers %v, oracle %v)", res.Epoch, m.Recall, res.Answers, res.Exact)
	}
	return res, err
}

func TestLiveReshardGrowShrinkConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard migration conformance in -short mode")
	}
	const legEpochs = 3
	const totalEpochs = 3 * legEpochs

	// Flat reference: both cursors posted upfront, stepped interleaved, then
	// the historic run.
	flat := memo(t, row{world: fmt.Sprintf("scale-%d", reshardNodes), shards: 1, parallel: 1, epochs: totalEpochs,
		queries: []rowQuery{{reshardSQLA, AlgoAuto}, {reshardSQLB, AlgoAuto}, {scaleHistoricSQL, AlgoAuto}}})

	// The migrating federation starts 2-sharded.
	scen2 := reshardScen(t, 2)
	addrs2, _ := startWireShards(t, scen2, runtime.NumCPU())
	sys, err := OpenFederated(scen2, addrs2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	curA, curB := post(t, sys, reshardSQLA, AlgoAuto), post(t, sys, reshardSQLB, AlgoAuto)
	var gotA, gotB []StepResult
	step := func(label string, cur *Cursor, got *[]StepResult) {
		t.Helper()
		res, err := stepScored(cur)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		*got = append(*got, res)
	}

	// Leg 1 on 2 shards.
	for i := 0; i < legEpochs; i++ {
		step("2-shard A", curA, &gotA)
		step("2-shard B", curB, &gotB)
	}

	// Grow 2→4 while the deployment is quiescent between steps.
	scen4 := reshardScen(t, 4)
	addrs4, _ := startWireShards(t, scen4, runtime.NumCPU())
	rep, err := sys.Reshard(scen4, addrs4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromShards != 2 || rep.ToShards != 4 {
		t.Fatalf("grow report %+v", rep)
	}
	if rep.Queries != 2 {
		t.Fatalf("grow replayed %d queries, want 2", rep.Queries)
	}
	if rep.MovedBytes == 0 {
		t.Fatal("grow moved no snapshot bytes")
	}
	if rep.DowntimeEpochs != 0 {
		t.Fatalf("quiescent grow reported %d downtime epochs", rep.DowntimeEpochs)
	}
	if sys.Shards() != 4 {
		t.Fatalf("post-grow Shards() = %d", sys.Shards())
	}

	// The durable tier moved with the nodes: every target shard carries its
	// roster's windows and the epoch cursor of the source snapshots.
	ss, err := sys.StorageStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 4 {
		t.Fatalf("post-grow storage rows: %d", len(ss))
	}
	nodes := 0
	for i, st := range ss {
		nodes += st.Nodes
		if !st.HasEpoch || st.LastEpoch != legEpochs-1 {
			t.Fatalf("post-grow shard %d cursor: %+v", i, st)
		}
	}
	if nodes != reshardNodes {
		t.Fatalf("post-grow windows cover %d nodes, want %d", nodes, reshardNodes)
	}

	// Leg 2 on 4 shards — same cursors, same epoch clock.
	for i := 0; i < legEpochs; i++ {
		step("4-shard A", curA, &gotA)
		step("4-shard B", curB, &gotB)
	}

	// Shrink 4→2 WHILE cursor A steps concurrently: the migration must not
	// stop the posted queries, and every epoch that lands during it still
	// answers exactly (on whichever deployment ran it).
	scen2b := reshardScen(t, 2)
	addrs2b, _ := startWireShards(t, scen2b, runtime.NumCPU())
	var wg sync.WaitGroup
	wg.Add(1)
	var concA []StepResult
	var concErr error
	go func() {
		defer wg.Done()
		for i := 0; i < legEpochs && concErr == nil; i++ {
			var res StepResult
			res, concErr = stepScored(curA)
			concA = append(concA, res)
		}
	}()
	rep2, err := sys.Reshard(scen2b, addrs2b)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if concErr != nil {
		t.Fatalf("concurrent stepping during shrink: %v", concErr)
	}
	if rep2.FromShards != 4 || rep2.ToShards != 2 {
		t.Fatalf("shrink report %+v", rep2)
	}
	gotA = append(gotA, concA...)
	// Cursor B catches up on its buffered epochs (the shared clock ran them
	// whenever A stepped).
	for i := 0; i < legEpochs; i++ {
		step("post-shrink B", curB, &gotB)
	}

	// Both streams, and a historic run after two migrations, equal the
	// flat run.
	historic, err := post(t, sys, scaleHistoricSQL, AlgoAuto).Run()
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "resharded vs flat", outcome{steps: [][]StepResult{gotA, gotB}, historic: [][]Answer{historic}}, flat, false)
}

func TestReshardValidation(t *testing.T) {
	// Not a remote deployment.
	local, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Reshard(reshardScen(t, 2), []string{"a", "b"}); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("local Reshard: %v", err)
	}

	scen2 := reshardScen(t, 2)
	addrs2, _ := startWireShards(t, scen2, 1)
	sys, err := OpenFederated(scen2, addrs2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Address count must match the new partition.
	if _, err := sys.Reshard(reshardScen(t, 4), addrs2); err == nil || !strings.Contains(err.Error(), "addresses") {
		t.Fatalf("addr mismatch: %v", err)
	}
	// Single-shard targets are rejected.
	flat, err := ScaleScenario(reshardNodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Reshard(flat, []string{"127.0.0.1:1"}); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("single-shard target: %v", err)
	}
	// A different flat deployment is rejected before anything is dialed.
	other := shardedDemo(t, 2)
	if _, err := sys.Reshard(other, []string{"127.0.0.1:1", "127.0.0.1:2"}); err == nil || !strings.Contains(err.Error(), "same flat deployment") {
		t.Fatalf("skewed scenario: %v", err)
	}
}

// history is a snapshot image read back per node: its node record and each
// node's recorded epochs and values. The store keeps no per-node form; the
// tests read one.
type history struct {
	cursor model.Epoch
	nodes  []storage.NodeEnergy
	epochs map[model.NodeID][]model.Epoch
	values map[model.NodeID][]int64
}

// imageHistory transposes a snapshot image — a storage log image: an
// 8-byte header, then u32 len | payload | u32 crc frames holding the epoch
// records (kind 1, storage.DecodeReadings) and, last, the node record
// (kind 2, every node with its µJ total, storage.DecodeEnergies).
func imageHistory(t *testing.T, img []byte) history {
	t.Helper()
	h := history{epochs: make(map[model.NodeID][]model.Epoch), values: make(map[model.NodeID][]int64)}
	for b := img[8:]; len(b) > 0; b = b[8+binary.LittleEndian.Uint32(b):] {
		p := b[4 : 4+binary.LittleEndian.Uint32(b)]
		if p[0] == 2 {
			var err error
			if h.cursor, h.nodes, err = storage.DecodeEnergies(p[1:]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		e, nodes, values, err := storage.DecodeReadings(p[1:])
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range nodes {
			h.epochs[n] = append(h.epochs[n], e)
			h.values[n] = append(h.values[n], values[i])
		}
	}
	return h
}

// TestReshardRestoresFilteredImagesInTurn: re-sharding's merge is
// Restore's overlay, each source image's part restored onto the target in
// turn. The target's cursor is the newest contributing one, a source
// keeping none of the target's nodes contributes nothing (not even its
// newer cursor), the node record comes out ascending with every energy
// bit-exact, and the merged image restores to itself.
func TestReshardRestoresFilteredImagesInTurn(t *testing.T) {
	open := func() *storage.Store {
		st, err := storage.OpenStore("", storage.DefaultStoreWindow)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	source := func(cursor Epoch, nodes ...NodeID) []byte {
		st := open()
		for e := Epoch(0); e <= cursor; e++ {
			m := make(map[NodeID]model.Reading)
			for _, n := range nodes {
				m[n] = model.Reading{Node: n, Epoch: e, Value: model.Value(n)*100 + model.Value(e)}
			}
			st.RecordReadings(e, m)
		}
		return st.Image(func(ns []NodeID) []float64 {
			uj := make([]float64, len(ns))
			for i, n := range ns {
				uj[i] = float64(n) + 0.1
			}
			return uj
		})
	}
	images := [][]byte{source(4, 3, 1), source(5, 2), source(7, 9)}
	target := func(keep ...NodeID) (*storage.Store, []byte) {
		st, energy := open(), make(map[NodeID]float64)
		keepSet := make(map[NodeID]bool)
		for _, n := range keep {
			keepSet[n] = true
		}
		err := restoreParts(images, keepSet, func(part []byte) error {
			rows, err := st.Restore(part)
			for _, r := range rows {
				energy[r.Node] = r.UJ
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, st.Image(func(ns []NodeID) []float64 {
			uj := make([]float64, len(ns))
			for i, n := range ns {
				uj[i] = energy[n]
			}
			return uj
		})
	}

	_, img := target(1, 2, 3)
	h := imageHistory(t, img)
	if h.cursor != 5 {
		t.Fatalf("merged cursor %d, want 5 (the newest contributor's; node 9's source keeps nothing)", h.cursor)
	}
	if fmt.Sprint(h.nodes) != "[{1 1.1} {2 2.1} {3 3.1}]" {
		t.Fatalf("merged node record %v", h.nodes)
	}
	for n, want := range map[NodeID]string{1: "[0 1 2 3 4]", 2: "[0 1 2 3 4 5]", 3: "[0 1 2 3 4]"} {
		if fmt.Sprint(h.epochs[n]) != want || h.values[n][1] != int64(n)*10000+100 {
			t.Fatalf("node %d merged epochs %v values %v", n, h.epochs[n], h.values[n])
		}
	}
	again := open()
	if _, err := again.Restore(img); err != nil {
		t.Fatal(err)
	}
	if re := again.Image(func(ns []NodeID) []float64 { return []float64{1.1, 2.1, 3.1} }); !bytes.Equal(re, img) {
		t.Fatal("merged image does not restore to itself")
	}

	// A target no source keeps a node of receives nothing.
	if st, _ := target(42); st.Stats().Nodes != 0 {
		t.Fatalf("empty merge seated %d nodes", st.Stats().Nodes)
	} else if _, ok := st.Cursor(); ok {
		t.Fatal("empty merge took a cursor")
	}
}
