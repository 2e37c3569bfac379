// Package trace generates synthetic sensor data. The paper's demo senses
// conference-room sound levels with MTS310 boards; we substitute seedable
// generators that exercise the same code paths: a room-occupancy sound
// model (active rooms are loud, empty rooms hum), a diurnal temperature
// field, a bounded random walk, Zipf-distributed hot spots, and exact
// fixtures for the paper's Figure 1 and Figure 3 scenarios.
//
// All generators are deterministic functions of (seed, node, epoch), so the
// concurrent runtime and the sequential simulator observe identical worlds.
package trace

import (
	"math"
	"math/rand"

	"kspot/internal/model"
)

// Source produces a reading value for a node at an epoch.
type Source interface {
	// Sample returns node's sensed value at epoch e.
	Sample(node model.NodeID, e model.Epoch) model.Value
}

// hash64 mixes a seed, node and epoch into a pseudo-random 64-bit value.
// SplitMix64 finalizer: cheap, stateless, and good enough for simulation.
func hash64(seed int64, node model.NodeID, e model.Epoch) uint64 {
	x := uint64(seed) ^ (uint64(node) << 32) ^ uint64(e)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unit returns a uniform float in [0,1) from (seed,node,epoch).
func unit(seed int64, node model.NodeID, e model.Epoch) float64 {
	return float64(hash64(seed, node, e)>>11) / float64(1<<53)
}

// gauss returns an approximately standard normal deviate (sum of 4 uniforms,
// Irwin–Hall) — stateless, deterministic per (seed,node,epoch,salt).
func gauss(seed int64, node model.NodeID, e model.Epoch) float64 {
	s := 0.0
	for i := 0; i < 4; i++ {
		s += unit(seed+int64(i)*7919, node, e)
	}
	return (s - 2) * math.Sqrt(3) // variance of Irwin-Hall(4) is 4/12
}

// Fixture replays an explicit table of values: values[node][epoch]. Epochs
// beyond the table repeat the last column; nodes absent from the table read
// zero. Used for the paper's worked examples.
type Fixture struct {
	values map[model.NodeID][]model.Value
}

// NewFixture builds a fixture from explicit per-node series.
func NewFixture(values map[model.NodeID][]model.Value) *Fixture {
	cp := make(map[model.NodeID][]model.Value, len(values))
	for n, vs := range values {
		cp[n] = append([]model.Value(nil), vs...)
	}
	return &Fixture{values: cp}
}

// Sample implements Source.
func (f *Fixture) Sample(node model.NodeID, e model.Epoch) model.Value {
	vs := f.values[node]
	if len(vs) == 0 {
		return 0
	}
	if int(e) >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[e]
}

// RoomActivity models conference-room sound levels: each epoch a subset of
// rooms is "active" (a talk in progress) and reads loud (70–85%), the rest
// read ambient (35–45%). Activity changes every Period epochs, so the Top-K
// answer set migrates — the workload that exercises MINT's γ-violation
// reporting. Groups map rooms; node jitter differentiates sensors within a
// room.
type RoomActivity struct {
	Seed       int64
	Groups     map[model.NodeID]model.GroupID
	NumGroups  int
	ActiveFrac float64 // fraction of rooms active at a time (default 0.25)
	Period     model.Epoch
}

// NewRoomActivity constructs the generator. groups maps node → room; g is
// the room count.
func NewRoomActivity(seed int64, groups map[model.NodeID]model.GroupID, g int) *RoomActivity {
	return &RoomActivity{Seed: seed, Groups: groups, NumGroups: g, ActiveFrac: 0.25, Period: 10}
}

// Sample implements Source.
func (r *RoomActivity) Sample(node model.NodeID, e model.Epoch) model.Value {
	g := r.Groups[node]
	period := r.Period
	if period == 0 {
		period = 10
	}
	phase := e / period
	// Room activity: deterministic per (seed, group, phase).
	active := unit(r.Seed*31+int64(g)*17, model.NodeID(g), model.Epoch(phase)) < r.ActiveFrac
	var base float64
	if active {
		base = 70 + 15*unit(r.Seed+101, model.NodeID(g), model.Epoch(phase))
	} else {
		base = 35 + 10*unit(r.Seed+211, model.NodeID(g), model.Epoch(phase))
	}
	jitter := 2 * gauss(r.Seed+307, node, e)
	v := base + jitter
	if v < 0 {
		v = 0
	}
	if v > 100 {
		v = 100
	}
	return model.Value(v)
}

// Diurnal models a temperature field with a daily sine cycle plus a per-node
// spatial offset and measurement noise — the habitat-monitoring workload.
type Diurnal struct {
	Seed         int64
	Mean         float64 // e.g. 70 °F
	Amplitude    float64 // e.g. 15 °F
	EpochsPerDay model.Epoch
	NodeSpread   float64 // per-node constant offset stddev
	Noise        float64 // per-sample noise stddev
}

// NewDiurnal returns a generator with sensible habitat defaults.
func NewDiurnal(seed int64) *Diurnal {
	return &Diurnal{Seed: seed, Mean: 70, Amplitude: 15, EpochsPerDay: 96, NodeSpread: 3, Noise: 0.5}
}

// Sample implements Source.
func (d *Diurnal) Sample(node model.NodeID, e model.Epoch) model.Value {
	day := float64(e%d.EpochsPerDay) / float64(d.EpochsPerDay)
	cycle := d.Amplitude * math.Sin(2*math.Pi*(day-0.25)) // coolest at 6am
	offset := d.NodeSpread * gauss(d.Seed+1, node, 0)
	noise := d.Noise * gauss(d.Seed+2, node, e)
	return model.Value(d.Mean + cycle + offset + noise)
}

// RandomWalk is a bounded random walk per node: value(e) = clamp(value(e-1)
// + step). It is computed in closed form over the epoch prefix so sampling
// stays stateless; Steps bounds how far back it integrates (windowed walk).
type RandomWalk struct {
	Seed     int64
	Start    float64
	StepSize float64
	Min, Max float64
	Window   int // how many past steps shape the value (default 64)
}

// NewRandomWalk returns a walk over [min,max] starting at the midpoint.
func NewRandomWalk(seed int64, min, max float64) *RandomWalk {
	return &RandomWalk{Seed: seed, Start: (min + max) / 2, StepSize: (max - min) / 50, Min: min, Max: max, Window: 64}
}

// Sample implements Source.
func (w *RandomWalk) Sample(node model.NodeID, e model.Epoch) model.Value {
	window := w.Window
	if window <= 0 {
		window = 64
	}
	v := w.Start
	lo := 0
	if int(e) >= window {
		lo = int(e) - window + 1
	}
	for i := lo; i <= int(e); i++ {
		step := (unit(w.Seed, node, model.Epoch(i)) - 0.5) * 2 * w.StepSize
		v += step
		if v < w.Min {
			v = w.Min
		}
		if v > w.Max {
			v = w.Max
		}
	}
	return model.Value(v)
}

// Zipf produces values whose per-group popularity follows a Zipf law: a few
// groups are consistently hot. Used for skew-sensitivity sweeps (E8).
type Zipf struct {
	Seed   int64
	Groups map[model.NodeID]model.GroupID
	S      float64 // Zipf exponent, > 1
	Scale  float64 // hottest group's base value
	Noise  float64
}

// NewZipf returns a Zipf source with exponent s over the given grouping.
func NewZipf(seed int64, groups map[model.NodeID]model.GroupID, s, scale float64) *Zipf {
	if s <= 1 {
		s = 1.1
	}
	return &Zipf{Seed: seed, Groups: groups, S: s, Scale: scale, Noise: scale / 50}
}

// Sample implements Source.
func (z *Zipf) Sample(node model.NodeID, e model.Epoch) model.Value {
	g := float64(z.Groups[node])
	if g < 1 {
		g = 1
	}
	base := z.Scale / math.Pow(g, z.S)
	return model.Value(base + z.Noise*gauss(z.Seed, node, e))
}

// Uniform draws i.i.d. uniform values in [Min,Max) — the adversarial case
// for threshold algorithms (no skew to exploit).
type Uniform struct {
	Seed     int64
	Min, Max float64
}

// Sample implements Source.
func (u *Uniform) Sample(node model.NodeID, e model.Epoch) model.Value {
	return model.Value(u.Min + (u.Max-u.Min)*unit(u.Seed, node, e))
}

// Perm returns a deterministic permutation of [0,n) for the given seed —
// shared helper for workload shuffling.
func Perm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
