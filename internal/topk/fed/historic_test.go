package fed

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kspot/internal/model"
	"kspot/internal/topk"
)

// fakeShard holds one shard's node series in memory and answers the
// coordinator's two calls the way a real shard protocol does: LocalTopK
// ranks instants by exact local sum (quantized to wire resolution, as a
// SUM-pinned historic operator returns), FetchSums serves exact sums.
type fakeShard struct {
	series   [][]model.Value // per shard node
	starved  bool            // LocalTopK returns nothing (degraded run)
	fetches  int
	fetchIDs []model.GroupID
}

func (f *fakeShard) localSums(w int) []int64 {
	sums := make([]int64, w)
	for _, s := range f.series {
		for t, v := range s {
			sums[t] += int64(model.ToFixed(v))
		}
	}
	return sums
}

func (f *fakeShard) LocalTopK(shipK int) ([]model.Answer, int, error) {
	if f.starved {
		return nil, len(f.series), nil
	}
	if len(f.series) == 0 {
		return nil, 0, nil
	}
	w := len(f.series[0])
	sums := f.localSums(w)
	ans := make([]model.Answer, 0, w)
	for t := 0; t < w; t++ {
		ans = append(ans, model.Answer{Group: model.GroupID(t), Score: topk.FinalScore(sums[t], len(f.series), model.AggSum)})
	}
	model.SortAnswers(ans)
	if len(ans) > shipK {
		ans = ans[:shipK]
	}
	return ans, len(f.series), nil
}

func (f *fakeShard) FetchSums(ids []model.GroupID) (map[model.GroupID]int64, error) {
	f.fetches++
	f.fetchIDs = append(f.fetchIDs, ids...)
	if len(f.series) == 0 {
		return map[model.GroupID]int64{}, nil
	}
	sums := f.localSums(len(f.series[0]))
	out := make(map[model.GroupID]int64, len(ids))
	for _, id := range ids {
		out[id] = sums[id]
	}
	return out, nil
}

// historicWorld builds a seeded random deployment: node series scattered
// across shards, returning the shards and the flat oracle input.
func historicWorld(rng *rand.Rand, shards, nodes, w int) ([]*fakeShard, topk.HistoricData) {
	fs := make([]*fakeShard, shards)
	for i := range fs {
		fs[i] = &fakeShard{}
	}
	all := topk.HistoricData{}
	for n := 1; n <= nodes; n++ {
		s := make([]model.Value, w)
		for t := range s {
			// Tie-rich: a few centi-levels straddling AVG rounding edges.
			s[t] = []model.Value{1.99, 2.00, 2.01, 4.00, 60.0, 61.0}[rng.Intn(6)]
		}
		all[model.NodeID(n)] = s
		sh := fs[rng.Intn(shards)]
		sh.series = append(sh.series, s)
	}
	return fs, all
}

func asHistoricShards(fs []*fakeShard) []HistoricShard {
	out := make([]HistoricShard, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// TestHistoricMergeExactness pins the identical-answer argument over
// seeded random worlds for both aggregates, full shipments and starved
// ShipK=1 shipments.
func TestHistoricMergeExactness(t *testing.T) {
	for _, shipK := range []int{0, 1, 2} {
		for _, agg := range []model.AggKind{model.AggAvg, model.AggSum} {
			t.Run(fmt.Sprintf("shipK=%d/%v", shipK, agg), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(13 + shipK)))
				for trial := 0; trial < 300; trial++ {
					shards := 1 + rng.Intn(5)
					nodes := 1 + rng.Intn(12)
					w := 1 + rng.Intn(24)
					k := 1 + rng.Intn(8)
					fs, all := historicWorld(rng, shards, nodes, w)
					q := topk.HistoricQuery{K: k, Agg: agg, Window: w}
					m, err := NewHistoric(q, Config{ShipK: shipK}, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := m.Run(asHistoricShards(fs))
					if err != nil {
						t.Fatal(err)
					}
					want := topk.ExactHistoric(all, q)
					if !model.EqualAnswers(got, want) {
						t.Fatalf("trial %d (shards=%d nodes=%d w=%d k=%d): merged %v, flat %v",
							trial, shards, nodes, w, k, got, want)
					}
				}
			})
		}
	}
}

// TestHistoricMergeKthBoundaryTie is the constructed tie at ShipK=1: the
// per-node series of the TPUT boundary regression split across three
// shards. Instant 1's upper bound stays strictly below the merged K-th
// as a raw sum, but AVG over the five nodes quantizes both to the same
// score — the tie goes to instant 1's smaller id, so phase 2 must fetch
// it from every shard that did not ship it, or the merge silently
// diverges from the flat run.
func TestHistoricMergeKthBoundaryTie(t *testing.T) {
	series := [][]model.Value{
		{2.00, 6.00, 4.01},
		{0.01, 2.00, 5.99},
		{0.01, 1.99, 4.01},
		{0.01, 4.00, 2.01},
		{6.00, 4.00, 2.00},
	}
	fs := []*fakeShard{
		{series: series[0:2]},
		{series: series[2:3]},
		{series: series[3:5]},
	}
	all := topk.HistoricData{}
	for i, s := range series {
		all[model.NodeID(i+1)] = s
	}
	q := topk.HistoricQuery{K: 1, Agg: model.AggAvg, Window: 3}
	want := topk.ExactHistoric(all, q)
	if len(want) != 1 || want[0].Group != 1 {
		t.Fatalf("oracle did not tie toward instant 1: %v", want)
	}
	m, err := NewHistoric(q, Config{ShipK: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(asHistoricShards(fs))
	if err != nil {
		t.Fatal(err)
	}
	if !model.EqualAnswers(got, want) {
		t.Fatalf("K-th boundary tie dropped at the coordinator: merged %v, flat %v", got, want)
	}
}

// TestHistoricMergeAccounting: full-window shipments leave nothing to
// fetch; starved shipments fetch and account every phase.
func TestHistoricMergeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fs, _ := historicWorld(rng, 3, 9, 8)
	q := topk.HistoricQuery{K: 2, Agg: model.AggAvg, Window: 8}

	var full Stats
	m, err := NewHistoric(q, Config{ShipK: 8}, &full) // ShipK = whole window
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(asHistoricShards(fs)); err != nil {
		t.Fatal(err)
	}
	s := full.Snapshot()
	if s.Phase2Reqs != 0 || s.Fetched != 0 {
		t.Fatalf("full-window shipments still fetched: %+v", s)
	}
	if s.Rounds != 1 || s.Phase1Msgs == 0 || s.TxBytes == 0 {
		t.Fatalf("phase-1 accounting missing: %+v", s)
	}

	var starved Stats
	m, err = NewHistoric(q, Config{ShipK: 1}, &starved)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(asHistoricShards(fs)); err != nil {
		t.Fatal(err)
	}
	s = starved.Snapshot()
	if s.Phase2Reqs == 0 || s.Phase2Msgs != s.Phase2Reqs || s.Fetched == 0 {
		t.Fatalf("starved phase 1 did not account its fetches: %+v", s)
	}
	// Every fetch names only instants the shard did not ship, sorted.
	for i, f := range fs {
		if f.fetches > 1 {
			t.Fatalf("shard %d fetched %d times in one round", i, f.fetches)
		}
		if !sort.SliceIsSorted(f.fetchIDs, func(a, b int) bool { return f.fetchIDs[a] < f.fetchIDs[b] }) {
			t.Fatalf("shard %d fetch ids unsorted: %v", i, f.fetchIDs)
		}
	}
}

// TestHistoricMergeDegradedShard: a shard whose local run returns no
// ranking (nodes > 0 but nothing shipped) cannot bound its unshipped
// region, so the coordinator must fetch everything from it and stay
// exact.
func TestHistoricMergeDegradedShard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fs, all := historicWorld(rng, 2, 6, 6)
	fs[1].starved = true
	q := topk.HistoricQuery{K: 3, Agg: model.AggAvg, Window: 6}
	m, err := NewHistoric(q, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(asHistoricShards(fs))
	if err != nil {
		t.Fatal(err)
	}
	want := topk.ExactHistoric(all, q)
	if !model.EqualAnswers(got, want) {
		t.Fatalf("degraded shard broke exactness: merged %v, flat %v", got, want)
	}
	if fs[1].fetches == 0 {
		t.Fatal("degraded shard was never fetched from")
	}
}

// TestNewHistoricValidates: bad queries and ship sizes are rejected.
func TestNewHistoricValidates(t *testing.T) {
	if _, err := NewHistoric(topk.HistoricQuery{K: 0, Agg: model.AggAvg, Window: 4}, Config{}, nil); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewHistoric(topk.HistoricQuery{K: 2, Agg: model.AggAvg, Window: 4}, Config{ShipK: -1}, nil); err == nil {
		t.Error("negative ShipK accepted")
	}
}
