package fed

// Historic federation: TOP-K ... WITH HISTORY on a sharded deployment.
//
// Unlike the snapshot case, a time instant is NOT confined to one shard —
// its global score is the aggregate of that instant's readings across
// every shard's windows, so the coordinator merges *partial sums*, the
// setting the original TPUT algorithm was designed for. The two-phase
// round per historic execution:
//
//	Phase 1: every shard runs its historic operator unchanged over its own
//	         buffered windows, ranked by the shard-local SUM
//	         partial (SUM and AVG rank identically — AVG divides every
//	         instant by the same participant count). It ships its top
//	         ShipK instants with their exact local sums, plus its local
//	         threshold τ_i — the lowest shipped sum while unshipped
//	         instants remain, −∞ when the shard shipped its whole window.
//	Phase 2: the coordinator knows the exact global sum of every instant
//	         reported by ALL shards and sets τ = the K-th best of those.
//	         For any other instant t, each missing shard i contributes at
//	         most τ_i (local rankings are exact), so UB(t) = Σ reported +
//	         Σ missing τ_i. Instants whose UB can still reach or tie τ in
//	         final quantized-score space are fetched — one targeted
//	         CL-style sweep per shard for exactly the instants that shard
//	         did not report — and everything fetched is then exact.
//
// Exactness (on fault-free networks, the same scope as the operators'
// own exactness — under armed loss the flat operators divide AVG by the
// reached-node count, which a coordinator cannot observe, so degraded
// runs degrade rather than match bit-for-bit). Shards share one flat
// trace source and global node ids, and every node buffers the full
// window, so per-shard epoch indices align at the coordinator by
// construction and Σ shard sums = the flat sum, integer-exact. An instant excluded by phase 2 has true global sum ≤
// UB(t) with FinalScore(UB) strictly below FinalScore(τ); since at least
// K instants score ≥ FinalScore(τ), the excluded instant is strictly
// dominated regardless of tie-breaking and cannot enter the flat top-K.
// The threshold comparison must happen in FinalScore space, not sum
// space: an AVG division can quantize two distinct sums into a tie that
// the system's total order then breaks by instant id — comparing raw sums
// there would silently diverge from the flat run at the K-th boundary
// (the same tie rule fed.Merger applies to snapshot scores).
//
// With ShipK = K phase 2 does NOT degenerate to zero fetches the way the
// snapshot merge does: a globally high instant can rank below ShipK in
// every shard. Fetches are the norm here — the TPUT regime — and are
// accounted per round in Stats.

import (
	"fmt"
	"math"
	"sync"

	"kspot/internal/model"
	"kspot/internal/topk"
)

// HistoricShard is the coordinator's surface onto one shard's historic
// execution. HostExec is the one implementation outside tests: it runs the
// real per-shard protocols through a shard host's historic calls.
type HistoricShard interface {
	// LocalTopK runs the shard-local historic operator for the shard's top
	// shipK instants ranked by local SUM partial, returning the ranked
	// answers (Score = the exact local sum in engineering units, wire-
	// quantized) and the number of shard nodes holding a buffered window.
	LocalTopK(shipK int) (answers []model.Answer, nodes int, err error)
	// FetchSums returns the shard's exact local fixed-point sums for the
	// given instants — the phase-2 targeted sweep.
	FetchSums(ids []model.GroupID) (map[model.GroupID]int64, error)
}

// HistoricHost is the historic half of the shard contract: a shard body
// (internal/shard) answers it in process and a wire client over a socket.
// HistoricTopK buffers the host's windows under exec and runs the named
// operator over them; FetchSums reads exact local sums off those windows.
type HistoricHost interface {
	HistoricTopK(exec uint32, algo string, q topk.HistoricQuery) ([]model.Answer, int, error)
	FetchSums(exec uint32, ids []model.GroupID) (map[model.GroupID]int64, error)
}

// HostExec is one historic execution on one shard host: the coordinator's
// merge surface over the host's calls. The caller releases Exec on the
// host when the round is over.
type HostExec struct {
	Host HistoricHost
	Exec uint32
	Algo string
	Q    topk.HistoricQuery
}

// LocalTopK implements HistoricShard. The shard operator runs pinned to the
// SUM aggregate: SUM and AVG rank instants identically within a shard (AVG
// divides every instant by the same participant count), and the
// coordinator needs the exact partial sums — a shard-local AVG would bake
// in the shard's own divisor and lose them.
func (h HostExec) LocalTopK(shipK int) ([]model.Answer, int, error) {
	q := h.Q
	q.K, q.Agg = shipK, model.AggSum
	return h.Host.HistoricTopK(h.Exec, h.Algo, q)
}

// FetchSums implements HistoricShard: the phase-2 targeted sweep.
func (h HostExec) FetchSums(ids []model.GroupID) (map[model.GroupID]int64, error) {
	return h.Host.FetchSums(h.Exec, ids)
}

// Historic sentinel bounds for τ_i: exhausted shards bound their (empty)
// unshipped region by −∞; a degraded shard that returned no ranking at all
// cannot bound it and forces a fetch. Quarter-range keeps Σ over shards
// overflow-free.
const (
	tauExhausted = math.MinInt64 / 4
	tauUnknown   = math.MaxInt64 / 4
)

// HistoricMerger merges shard-local historic rankings at the coordinator.
// One merger serves one historic execution stream; Stats, shared across a
// deployment's mergers, is safe for concurrent use.
type HistoricMerger struct {
	q     topk.HistoricQuery
	shipK int
	stats *Stats
}

// NewHistoric builds a historic merger for a query. stats may be nil.
func NewHistoric(q topk.HistoricQuery, cfg Config, stats *Stats) (*HistoricMerger, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	shipK := cfg.ShipK
	if shipK == 0 {
		shipK = q.K
	}
	if shipK < 1 {
		return nil, fmt.Errorf("fed: ShipK must be >= 1, got %d", shipK)
	}
	return &HistoricMerger{q: q, shipK: shipK, stats: stats}, nil
}

// shardReport is one shard's phase-1 result at the coordinator.
type shardReport struct {
	sums  map[model.GroupID]int64 // reported local sums, centi-units
	tau   int64                   // upper bound on any unreported local sum
	nodes int
	err   error
}

// Run executes the two-phase merge over the shards, fanning each phase's
// per-shard protocol executions out concurrently: every shard is its own
// network (in this process or another one), so their halves of a round
// overlap. The result is byte-identical to the flat historic run.
func (m *HistoricMerger) Run(shards []HistoricShard) ([]model.Answer, error) {
	var d Snapshot
	d.Rounds = 1
	w := m.q.Window

	// Phase 1: per-shard local top-ShipK.
	reports := make([]shardReport, len(shards))
	eachShard(shards, func(i int, sh HistoricShard) {
		ans, nodes, err := sh.LocalTopK(m.shipK)
		r := shardReport{sums: make(map[model.GroupID]int64, len(ans)), nodes: nodes, err: err}
		for _, a := range ans {
			if int(a.Group) >= w {
				r.err = fmt.Errorf("fed: shard %d reports instant %d outside window %d", i, a.Group, w)
				break
			}
			if _, dup := r.sums[a.Group]; dup {
				r.err = fmt.Errorf("fed: shard %d reports instant %d twice", i, a.Group)
				break
			}
			// The shard's score is its exact local sum, wire-quantized;
			// ToFixed recovers the centi-unit integer exactly.
			r.sums[a.Group] = int64(model.ToFixed(a.Score))
		}
		switch {
		case len(ans) >= w || nodes == 0:
			r.tau = tauExhausted // whole window shipped (or nothing to ship)
		case len(ans) > 0:
			r.tau = int64(model.ToFixed(ans[len(ans)-1].Score))
		default:
			r.tau = tauUnknown // degraded run returned no ranking: force fetch
		}
		reports[i] = r
	})
	dataShards := 0
	nTotal := 0
	for i := range reports {
		if reports[i].err != nil {
			return nil, reports[i].err
		}
		if reports[i].nodes == 0 {
			continue
		}
		dataShards++
		nTotal += reports[i].nodes
		d.Phase1Msgs++
		d.TxBytes += msgHeaderSize + len(reports[i].sums)*answerSize
	}
	if dataShards == 0 {
		if m.stats != nil {
			m.stats.add(d)
		}
		return nil, nil
	}

	// The coordinator's table: exact totals for fully covered instants,
	// τ_i-bounded totals otherwise. Every data shard holds the full window,
	// so each instant in [0, w) has a contribution from each of them.
	cover := make([]int, w)
	total := make([]int64, w)
	for i := range reports {
		if reports[i].nodes == 0 {
			continue
		}
		for id, s := range reports[i].sums {
			cover[id]++
			total[id] += s
		}
	}
	exact := make([]model.Answer, 0, w)
	for t := 0; t < w; t++ {
		if cover[t] == dataShards {
			exact = append(exact, model.Answer{Group: model.GroupID(t), Score: topk.FinalScore(total[t], nTotal, m.q.Agg)})
		}
	}
	model.SortAnswers(exact)
	tauScore := model.KthScore(exact, m.q.K) // −∞ when coverage is starved

	// Phase 2: fetch every instant whose upper bound can still reach or
	// tie the merged K-th in final quantized-score space, from exactly the
	// shards that did not report it.
	need := make([][]model.GroupID, len(shards))
	for t := 0; t < w; t++ {
		if cover[t] == dataShards {
			continue
		}
		ub := int64(0)
		unknown := false
		for i := range reports {
			if reports[i].nodes == 0 {
				continue
			}
			if s, ok := reports[i].sums[model.GroupID(t)]; ok {
				ub += s
			} else {
				ub += reports[i].tau
				unknown = unknown || reports[i].tau == tauUnknown
			}
		}
		if !unknown && topk.FinalScore(ub, nTotal, m.q.Agg) < tauScore {
			continue // strictly dominated by K exact instants, ties included
		}
		for i := range reports {
			if reports[i].nodes == 0 {
				continue
			}
			if _, ok := reports[i].sums[model.GroupID(t)]; !ok {
				need[i] = append(need[i], model.GroupID(t))
			}
		}
		cover[t] = -1 // mark as a candidate pending exact totals
	}
	fetched := make([]map[model.GroupID]int64, len(shards))
	var errMu sync.Mutex
	var fetchErr error
	eachShard(shards, func(i int, sh HistoricShard) {
		if len(need[i]) == 0 {
			return
		}
		sums, err := sh.FetchSums(need[i])
		if err != nil {
			errMu.Lock()
			if fetchErr == nil {
				fetchErr = fmt.Errorf("fed: shard %d fetch: %w", i, err)
			}
			errMu.Unlock()
			return
		}
		fetched[i] = sums
	})
	if fetchErr != nil {
		return nil, fetchErr
	}
	for i := range shards {
		if len(need[i]) == 0 {
			continue
		}
		d.Phase2Reqs++
		d.TxBytes += fetchReqSize + 2*len(need[i])
		d.Phase2Msgs++
		d.TxBytes += msgHeaderSize + len(need[i])*answerSize
		d.Fetched += len(need[i])
		for _, id := range need[i] {
			total[id] += fetched[i][id]
		}
	}

	answers := make([]model.Answer, 0, len(exact))
	for t := 0; t < w; t++ {
		if cover[t] == dataShards || cover[t] == -1 {
			answers = append(answers, model.Answer{Group: model.GroupID(t), Score: topk.FinalScore(total[t], nTotal, m.q.Agg)})
		}
	}
	model.SortAnswers(answers)
	if len(answers) > m.q.K {
		answers = answers[:m.q.K]
	}
	if m.stats != nil {
		m.stats.add(d)
	}
	return answers, nil
}

// eachShard applies fn to every shard concurrently.
func eachShard(shards []HistoricShard, fn func(i int, sh HistoricShard)) {
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh HistoricShard) {
			defer wg.Done()
			fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
}
