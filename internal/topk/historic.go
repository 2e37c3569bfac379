package topk

import (
	"fmt"
	"slices"
	"sort"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
)

// HistoricQuery is the paper's vertically-fragmented historic form:
//
//	SELECT TOP K timeinstant, AGG(attr) FROM sensors WITH HISTORY w
//
// Every node buffers its last Window readings; the score of a time instant
// is the aggregate of that instant's readings across all nodes. Items are
// identified by their window offset (0 = oldest), carried as model.GroupID
// on the wire since both are uint16 identifiers.
type HistoricQuery struct {
	K      int
	Agg    model.AggKind
	Window int
}

// maxWindow is the longest history a historic query ranks: instants and
// their counts travel as 16-bit values, which cannot carry 65 536.
const maxWindow = 1<<16 - 1

// Validate rejects malformed queries.
func (q HistoricQuery) Validate() error {
	if q.K < 1 {
		return fmt.Errorf("topk: K must be >= 1, got %d", q.K)
	}
	if q.Window < 1 {
		return fmt.Errorf("topk: window must be >= 1, got %d", q.Window)
	}
	if q.Window > maxWindow {
		return fmt.Errorf("topk: window %d exceeds the 16-bit item id space (max %d)", q.Window, maxWindow)
	}
	if q.Agg != model.AggAvg && q.Agg != model.AggSum {
		return fmt.Errorf("topk: historic queries support AVG and SUM, got %v", q.Agg)
	}
	return nil
}

// HistoricData is each node's buffered window: series[node][t] is the value
// sensed by node at window offset t. All series have length Window.
type HistoricData map[model.NodeID][]model.Value

// Validate checks the data matches the query's window.
func (d HistoricData) Validate(q HistoricQuery) error {
	for n, s := range d {
		if len(s) != q.Window {
			return fmt.Errorf("topk: node %d has %d samples, window is %d", n, len(s), q.Window)
		}
	}
	return nil
}

// HistoricOperator is a distributed top-k algorithm for historic queries:
// a one-shot protocol over the buffered windows.
type HistoricOperator interface {
	Name() string
	// Run executes the protocol on the transport and returns the sink's
	// ranked answers (item = window offset, score = aggregate).
	Run(t engine.Transport, q HistoricQuery, data HistoricData) ([]model.Answer, error)
}

// ExactHistoric computes the ground-truth historic answer centrally. Sums
// accumulate in fixed-point centi-units, the same arithmetic the
// distributed operators use, so that the oracle is bit-identical regardless
// of accumulation order.
func ExactHistoric(data HistoricData, q HistoricQuery) []model.Answer {
	sums := make([]int64, q.Window)
	counts := make([]uint32, q.Window)
	for _, series := range data {
		for t, v := range series {
			sums[t] += int64(model.ToFixed(v))
			counts[t]++
		}
	}
	answers := make([]model.Answer, 0, q.Window)
	for t := 0; t < q.Window; t++ {
		if counts[t] == 0 {
			continue
		}
		answers = append(answers, model.Answer{Group: model.GroupID(t), Score: FinalScore(sums[t], int(counts[t]), q.Agg)})
	}
	model.SortAnswers(answers)
	if len(answers) > q.K {
		answers = answers[:q.K]
	}
	return answers
}

// FinalScore converts an exact fixed-point (centi-unit) sum over n
// participating readings into the score the historic pipeline reports:
// the sum in engineering units, divided by n for AVG, quantized to wire
// resolution. Every historic component — the central oracle, the
// distributed operators' final rankings and their candidate cut-offs, and
// the federation tier's merged threshold — must convert through this one
// function, in this exact operation order, or two exact sums that differ
// by less than the wire resolution after an AVG division would rank
// differently in different components (the K-th-boundary tie class of
// bug: quantization collapses distinct sums into a tie that the system's
// total order then breaks by group id).
func FinalScore(sumFP int64, n int, agg model.AggKind) model.Value {
	score := model.Value(sumFP) / 100
	if agg == model.AggAvg {
		score /= model.Value(n)
	}
	return model.Quantize(score)
}

// FetchHistoricSums runs one CL-style targeted sweep over a network: the
// instant-id list is multicast down the routing tree and every node's
// exact fixed-point values for those instants are sum-joined back up in
// post-order. It returns the network-wide sums for the requested ids.
//
// This is the coordinator tier's phase-2 primitive on a federated
// historic run — "ship your exact local sums for these instants" — and it
// IS TJA's clean-up phase (tja delegates here), so the shard-side radio
// accounting of a targeted fetch is identical to the operator's own CL
// phase by construction, not by parallel maintenance. Duplicate ids are
// collapsed before anything travels.
func FetchHistoricSums(net engine.Transport, data HistoricData, ids []model.GroupID) map[model.GroupID]int64 {
	if len(ids) == 0 {
		return map[model.GroupID]int64{}
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	payload := make([]byte, 0, 2*len(sorted))
	for _, id := range sorted {
		payload = append(payload, byte(id), byte(id>>8))
	}
	reached := net.BroadcastDown(radio.KindCL, 0, func(model.NodeID) []byte { return payload })

	// Each tree node's partial sums, laid out by its post-order position and
	// each instant's position in sorted, and whether any reading joined each.
	tree := net.Routing()
	post := tree.PostOrder()
	top := 0
	for _, node := range post {
		top = max(top, int(node))
	}
	pos := make([]int32, top+1)
	for i, node := range post {
		pos[node] = int32(i)
	}
	m := len(sorted)
	sums, has := make([]int64, len(post)*m), make([]bool, len(post)*m)
	for i, node := range post {
		sum, in := sums[i*m:(i+1)*m], has[i*m:(i+1)*m]
		if node == tree.Root {
			out := make(map[model.GroupID]int64, m)
			for j, id := range sorted {
				if in[j] {
					out[id] = sum[j]
				}
			}
			return out
		}
		if series, ok := data[node]; ok && reached[node] {
			for j, id := range sorted {
				if int(id) < len(series) {
					sum[j] += int64(model.ToFixed(series[id]))
					in[j] = true
				}
			}
		}
		n := 0
		for _, ok := range in {
			if ok {
				n++
			}
		}
		if n == 0 || !net.Alive(node) {
			continue
		}
		msg := make([]byte, 0, n*model.AnswerWireSize)
		for j, id := range sorted {
			if in[j] {
				msg = model.AppendAnswer(msg, model.Answer{Group: id, Score: model.Value(sum[j]) / 100})
			}
		}
		if net.SendUp(node, radio.KindCL, 0, msg) {
			p := int(pos[tree.Parent[node]]) * m
			for j := range sorted {
				if in[j] {
					sums[p+j] += sum[j]
					has[p+j] = true
				}
			}
		}
	}
	return map[model.GroupID]int64{}
}

// LocalTopK returns the indices of a node's k highest local values, ranked,
// ties toward the smaller index — the per-node seed of TJA's LB phase and
// TPUT's phase one.
func LocalTopK(series []model.Value, k int) []int {
	idx := make([]int, len(series))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := model.Quantize(series[idx[a]]), model.Quantize(series[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	return idx
}
