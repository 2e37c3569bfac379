// Package topk defines the operator framework the KSpot query engine plugs
// algorithms into: snapshot operators (MINT, TAG, naive, centralized) that
// run once per epoch over live readings, and historic operators (TJA, TPUT,
// centralized) that run once over a buffered window. It also provides the
// exact reference evaluator every algorithm is tested against, and the
// epoch Runner that drives a snapshot operator over a trace.
package topk

import (
	"encoding/binary"
	"fmt"
	"math"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/trace"
)

// ValueRange is the calibrated sensing range of the queried attribute
// (sound level 0–100%, MTS310 temperature −40..250 °F, ...). MINT's γ
// descriptors use it to bound unseen readings from above, which is what
// lets a node prune even an incomplete partial aggregate.
type ValueRange struct {
	Min, Max model.Value
}

// SnapshotQuery is the paper's snapshot form:
//
//	SELECT TOP K <group>, AGG(<attr>) FROM sensors GROUP BY <group>
//	EPOCH DURATION e
//
// Range, when non-nil, declares the attribute's calibrated value range.
type SnapshotQuery struct {
	K     int
	Agg   model.AggKind
	Range *ValueRange
}

// Validate rejects malformed queries.
func (q SnapshotQuery) Validate() error {
	if q.K < 1 {
		return fmt.Errorf("topk: K must be >= 1, got %d", q.K)
	}
	if q.Range != nil && q.Range.Min > q.Range.Max {
		return fmt.Errorf("topk: inverted value range [%v,%v]", q.Range.Min, q.Range.Max)
	}
	return nil
}

// SnapshotOperator is a distributed top-k algorithm for snapshot queries.
// Attach binds it to a transport (a simulated network — see
// internal/engine) and a query; Epoch runs one
// acquisition round over the epoch's readings (one per live sensor) and
// returns the sink's current top-k answer.
type SnapshotOperator interface {
	Name() string
	Attach(t engine.Transport, q SnapshotQuery) error
	Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error)
}

// ExactSnapshot computes the ground-truth answer for one epoch from the raw
// readings — the oracle a centralized, lossless system would produce.
func ExactSnapshot(readings map[model.NodeID]model.Reading, q SnapshotQuery) []model.Answer {
	v := model.NewView()
	for _, r := range readings {
		v.Add(r)
	}
	return v.TopK(q.Agg, q.K)
}

// EpochResult records one epoch of a Runner execution.
type EpochResult struct {
	Epoch   model.Epoch
	Answers []model.Answer
	Exact   []model.Answer
	Correct bool
	Recall  float64
	Traffic sim.Snapshot // this epoch's traffic/energy delta
}

// Runner drives a snapshot operator over a trace for a number of epochs,
// scoring every epoch against the exact oracle. Net is any engine
// transport; benchmarks and tests pass a *sim.Network.
type Runner struct {
	Net    engine.Transport
	Source trace.Source
	Op     SnapshotOperator
	Query  SnapshotQuery
}

// Run executes epochs [0, n) and returns per-epoch results.
func (r *Runner) Run(n int) ([]EpochResult, error) {
	return r.RunWarm(0, n)
}

// RunWarm executes warm untracked epochs first (typically 1, covering the
// query installation flood and MINT's creation phase), resets the
// network's traffic and energy accounting, then executes and measures n
// further epochs. The steady-state numbers are what the paper's System
// Panel continuously displays.
func (r *Runner) RunWarm(warm, n int) ([]EpochResult, error) {
	if err := r.Query.Validate(); err != nil {
		return nil, err
	}
	if err := r.Op.Attach(r.Net, r.Query); err != nil {
		return nil, fmt.Errorf("topk: attach %s: %w", r.Op.Name(), err)
	}
	for e := model.Epoch(0); int(e) < warm; e++ {
		readings := engine.SenseEpoch(r.Net, r.Source, e)
		if _, err := r.Op.Epoch(e, readings); err != nil {
			return nil, fmt.Errorf("topk: %s warm epoch %d: %w", r.Op.Name(), e, err)
		}
	}
	if warm > 0 {
		r.Net.Reset()
	}
	results := make([]EpochResult, 0, n)
	for e := model.Epoch(warm); int(e) < warm+n; e++ {
		before := r.Net.Snap()
		r.Net.ChargeIdleEpoch()
		readings := engine.SenseEpoch(r.Net, r.Source, e)
		answers, err := r.Op.Epoch(e, readings)
		if err != nil {
			return results, fmt.Errorf("topk: %s epoch %d: %w", r.Op.Name(), e, err)
		}
		exact := ExactSnapshot(readings, r.Query)
		results = append(results, EpochResult{
			Epoch:   e,
			Answers: answers,
			Exact:   exact,
			Correct: model.EqualAnswers(answers, exact),
			Recall:  model.Recall(answers, exact),
			Traffic: r.Net.Delta(before),
		})
	}
	return results, nil
}

// Summary aggregates a run's results for the System Panel.
type Summary struct {
	Epochs      int
	CorrectPct  float64
	MeanRecall  float64
	Messages    int
	Frames      int
	TxBytes     int
	EnergyUJ    float64
	BytesPerEp  float64
	MsgsPerEp   float64
	EnergyPerEp float64
}

// Summarize folds epoch results into totals.
func Summarize(results []EpochResult) Summary {
	var s Summary
	s.Epochs = len(results)
	if s.Epochs == 0 {
		return s
	}
	correct := 0
	for _, r := range results {
		if r.Correct {
			correct++
		}
		s.MeanRecall += r.Recall
		s.Messages += r.Traffic.Messages
		s.Frames += r.Traffic.Frames
		s.TxBytes += r.Traffic.TxBytes
		s.EnergyUJ += r.Traffic.EnergyUJ
	}
	s.CorrectPct = 100 * float64(correct) / float64(s.Epochs)
	s.MeanRecall /= float64(s.Epochs)
	s.BytesPerEp = float64(s.TxBytes) / float64(s.Epochs)
	s.MsgsPerEp = float64(s.Messages) / float64(s.Epochs)
	s.EnergyPerEp = s.EnergyUJ / float64(s.Epochs)
	return s
}

// Beacon is the downstream per-epoch control record: the epoch number and,
// for MINT, the γ bound plus the current top-k membership. TAG and the
// baselines send it with γ = -Inf and no membership (just the epoch
// trigger), which costs them only the 8-byte fixed part.
type Beacon struct {
	Epoch model.Epoch
	Gamma model.Value
	TopK  []model.GroupID
}

// beaconFixedSize: epoch(4) + gamma fixed-point(4) + count(2).
const beaconFixedSize = 10

// The γ field reserves both fixed-point extremes as infinity sentinels:
// MinInt32 means −Inf ("no bound yet", the creation phase) and MaxInt32
// means +Inf ("prune everything"). Finite γ values are clamped one step
// inside the sentinels on encode, so a legitimate bound that quantizes to
// an extreme can never be mis-decoded as an infinity (and an infinite bound
// can never silently saturate into a finite one).
const (
	gammaNegInfFP model.FixedPoint = math.MinInt32
	gammaPosInfFP model.FixedPoint = math.MaxInt32
)

// encodeGamma maps a γ bound to its wire fixed-point, reserving the
// sentinels.
func encodeGamma(gamma model.Value) model.FixedPoint {
	switch {
	case math.IsInf(float64(gamma), -1):
		return gammaNegInfFP
	case math.IsInf(float64(gamma), 1):
		return gammaPosInfFP
	}
	fp := model.ToFixed(gamma)
	switch fp {
	case gammaNegInfFP:
		fp = gammaNegInfFP + 1 // clamp: sentinel reserved for −Inf
	case gammaPosInfFP:
		fp = gammaPosInfFP - 1 // clamp: sentinel reserved for +Inf
	}
	return fp
}

// decodeGamma is encodeGamma's inverse.
func decodeGamma(fp model.FixedPoint) model.Value {
	switch fp {
	case gammaNegInfFP:
		return model.Value(math.Inf(-1))
	case gammaPosInfFP:
		return model.Value(math.Inf(1))
	}
	return model.FromFixed(fp)
}

// EncodeBeacon serializes a beacon.
func EncodeBeacon(b Beacon) []byte {
	out := make([]byte, beaconFixedSize, beaconFixedSize+2*len(b.TopK))
	binary.LittleEndian.PutUint32(out[0:], uint32(b.Epoch))
	binary.LittleEndian.PutUint32(out[4:], uint32(encodeGamma(b.Gamma)))
	binary.LittleEndian.PutUint16(out[8:], uint16(len(b.TopK)))
	for _, g := range b.TopK {
		var gb [2]byte
		binary.LittleEndian.PutUint16(gb[:], uint16(g))
		out = append(out, gb[:]...)
	}
	return out
}

// DecodeBeacon parses a beacon payload.
func DecodeBeacon(p []byte) (Beacon, error) {
	if len(p) < beaconFixedSize {
		return Beacon{}, fmt.Errorf("topk: beacon too short (%d bytes)", len(p))
	}
	b := Beacon{
		Epoch: model.Epoch(binary.LittleEndian.Uint32(p[0:])),
		Gamma: decodeGamma(model.FixedPoint(binary.LittleEndian.Uint32(p[4:]))),
	}
	n := int(binary.LittleEndian.Uint16(p[8:]))
	if len(p) < beaconFixedSize+2*n {
		return Beacon{}, fmt.Errorf("topk: beacon claims %d groups, payload %d bytes", n, len(p))
	}
	for i := 0; i < n; i++ {
		b.TopK = append(b.TopK, model.GroupID(binary.LittleEndian.Uint16(p[beaconFixedSize+2*i:])))
	}
	return b, nil
}

// MinusInf is the γ value meaning "no bound yet" (creation phase).
func MinusInf() model.Value { return model.Value(math.Inf(-1)) }
