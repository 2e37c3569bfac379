// Package energy models the power budget of a MICA2-class sensor node.
//
// The paper's System Panel reports "savings in energy and messages"; those
// savings are a linear function of radio traffic, because on a MICA2 the
// CC1000 radio dominates the power draw (the ATmega128L CPU and the MTS310
// sensing board are an order of magnitude cheaper per epoch). This package
// provides that linear model with MICA2-derived defaults, per-node budgets
// and the network-lifetime metric used by experiment E4.
package energy

import (
	"fmt"
	"math"
)

// Model is a linear radio + fixed per-epoch energy model. All costs are in
// microjoules (µJ).
type Model struct {
	// TxPerByte is the cost of transmitting one byte.
	TxPerByte float64
	// RxPerByte is the cost of receiving one byte.
	RxPerByte float64
	// TxPerPacket is the fixed per-packet transmit overhead (preamble,
	// synchronization, MAC backoff) independent of payload size.
	TxPerPacket float64
	// RxPerPacket is the fixed per-packet receive overhead.
	RxPerPacket float64
	// SenseCost is the per-sample sensing cost (MTS310 acoustic channel).
	SenseCost float64
	// IdlePerEpoch is the per-epoch baseline (CPU active slice + radio
	// wake-up for the TDMA listen window).
	IdlePerEpoch float64
}

// MICA2 returns the default model. Derivation, at 3 V battery voltage and a
// 38.4 kbit/s CC1000 (the figures the MICA2 datasheet gives and the values
// used throughout the TinyDB/TAG literature):
//
//	TX draw 27 mA  -> 81 mW  -> 81e3 µW * 8/38400 s/byte ≈ 16.9 µJ/byte
//	RX draw 10 mA  -> 30 mW  ->                           ≈  6.3 µJ/byte
//
// The per-packet overheads cover the B-MAC preamble and TOS_Msg framing; the
// sensing and idle numbers are small but non-zero so that "send nothing"
// still costs something, as it does on hardware.
func MICA2() Model {
	return Model{
		TxPerByte:    16.9,
		RxPerByte:    6.3,
		TxPerPacket:  280, // ~16-byte effective preamble+sync at TX rates
		RxPerPacket:  120,
		SenseCost:    15,
		IdlePerEpoch: 45,
	}
}

// TxCost returns the energy to transmit one packet with the given number of
// on-air bytes (header + payload).
func (m Model) TxCost(bytes int) float64 {
	return m.TxPerPacket + m.TxPerByte*float64(bytes)
}

// RxCost returns the energy to receive one packet of the given size.
func (m Model) RxCost(bytes int) float64 {
	return m.RxPerPacket + m.RxPerByte*float64(bytes)
}

// Budget tracks one node's cumulative consumption against an initial
// capacity. It counts picojoules, rounding each spend as the Ledger rounds
// each charge, so a node's spent budget and its ledger account are one
// count: restoring a checkpointed ledger value (SetUsed) resumes exactly the
// budget of the run that never stopped. The zero Budget has infinite
// capacity.
type Budget struct {
	capacity int64 // pJ; 0 means unlimited
	used     int64 // pJ
}

// NewBudget returns a budget with the given capacity in joules. Two AA
// batteries hold roughly 2x 1.5 V * 2000 mAh ≈ 21.6 kJ; WSN papers usually
// budget a fraction of that for the radio. Callers pass joules; spends are
// in µJ.
func NewBudget(joules float64) *Budget {
	return &Budget{capacity: picojoules(joules * 1e6)}
}

// Spend consumes energy. It returns false when the budget was already
// exhausted before this spend (the node is dead and should not have acted).
func (b *Budget) Spend(microjoules float64) bool {
	if b.Dead() {
		return false
	}
	b.used += picojoules(microjoules)
	return true
}

// Used returns the energy spent so far in µJ.
func (b *Budget) Used() float64 { return float64(b.used) / pjPerUJ }

// SetUsed overwrites the energy spent — a checkpointed or migrated node
// resuming its count (a value Used or Ledger.Node returned converts back to
// the same picojoules).
func (b *Budget) SetUsed(microjoules float64) { b.used = picojoules(microjoules) }

// Dead reports whether the budget is exhausted.
func (b *Budget) Dead() bool {
	return b.capacity > 0 && b.used >= b.capacity
}

// Remaining returns the remaining energy in µJ (infinite capacity reports
// +Inf).
func (b *Budget) Remaining() float64 {
	if b.capacity <= 0 {
		return math.Inf(1)
	}
	if b.used >= b.capacity {
		return 0
	}
	return float64(b.capacity-b.used) / pjPerUJ
}

// Ledger aggregates per-node energy consumption for a whole network run.
// The System Panel reads totals and distributions from here. Accounts are
// indexed by node id — node ids are small dense integers, so the charge
// every transmission pays is a slice write, not a hash.
type Ledger struct {
	accounts []account // by node id
	open     int       // accounts opened
}

// account is one node's consumption, in picojoules. It is open once the
// node has been charged or set, even with zero: Nodes and Mean count open
// accounts.
//
// The count is an integer so that a set of charges sums to the same bits in
// any order: several acquisitions of one epoch charge a node in whatever
// order their transmissions commit, and float addition is not associative.
// A charge is rounded to the picojoule, far below any per-frame cost.
type account struct {
	pj   int64
	open bool
}

const pjPerUJ = 1e6

// picojoules rounds a µJ amount to the nearest picojoule, halves up. Every
// charge, spend and restored value is non-negative, so truncating x+0.5 is
// the rounding: one conversion on the per-transmission path, where
// math.Round is a dozen instructions.
func picojoules(microjoules float64) int64 { return int64(microjoules*pjPerUJ + 0.5) }

// NewLedger returns an empty ledger with room for node ids below nodes; an
// id beyond that grows the table when first charged.
func NewLedger(nodes int) *Ledger { return &Ledger{accounts: make([]account, nodes)} }

// account returns a node's account, opened, growing the table to reach it.
func (l *Ledger) account(node int) *account {
	if node >= len(l.accounts) {
		l.accounts = append(l.accounts, make([]account, node+1-len(l.accounts))...)
	}
	a := &l.accounts[node]
	if !a.open {
		a.open = true
		l.open++
	}
	return a
}

// Charge adds consumption to a node's account.
func (l *Ledger) Charge(node int, microjoules float64) {
	l.account(node).pj += picojoules(microjoules)
}

// Node returns one node's total consumption in µJ.
func (l *Ledger) Node(node int) float64 {
	if node < 0 || node >= len(l.accounts) {
		return 0
	}
	return float64(l.accounts[node].pj) / pjPerUJ
}

// Set overwrites a node's account — restoring a checkpointed or migrated
// shard resumes the exact count the source accumulated (a value Node
// returned converts back to the same picojoules).
func (l *Ledger) Set(node int, microjoules float64) {
	l.account(node).pj = picojoules(microjoules)
}

// Total returns the network-wide consumption in µJ: an integer sum, so it
// is identical across runs whatever order the charges came in (the fault
// layer's determinism tests compare the last ulp).
func (l *Ledger) Total() float64 {
	var t int64
	for i := range l.accounts {
		t += l.accounts[i].pj
	}
	return float64(t) / pjPerUJ
}

// Max returns the highest per-node consumption — the hot-spot metric that
// determines network lifetime under a uniform initial budget.
func (l *Ledger) Max() float64 {
	var m int64
	for i := range l.accounts {
		m = max(m, l.accounts[i].pj)
	}
	return float64(m) / pjPerUJ
}

// Mean returns the average per-node consumption (0 for an empty ledger).
func (l *Ledger) Mean() float64 {
	if l.open == 0 {
		return 0
	}
	return l.Total() / float64(l.open)
}

// Nodes returns the node ids present, ascending.
func (l *Ledger) Nodes() []int {
	ids := make([]int, 0, l.open)
	for i := range l.accounts {
		if l.accounts[i].open {
			ids = append(ids, i)
		}
	}
	return ids
}

// LifetimeEpochs estimates how many epochs the network survives until the
// first node dies, given each node's measured per-epoch consumption over the
// run and a uniform initial budget in joules. It divides budget by the
// hottest node's per-epoch draw. Returns +Inf when nothing was consumed.
func (l *Ledger) LifetimeEpochs(budgetJoules float64, epochsMeasured int) float64 {
	if epochsMeasured <= 0 {
		return math.Inf(1)
	}
	perEpochMax := l.Max() / float64(epochsMeasured)
	if perEpochMax <= 0 {
		return math.Inf(1)
	}
	return budgetJoules * 1e6 / perEpochMax
}

// String summarizes the ledger for the System Panel.
func (l *Ledger) String() string {
	return fmt.Sprintf("energy{total=%.1fmJ max=%.1fmJ mean=%.1fmJ nodes=%d}",
		l.Total()/1000, l.Max()/1000, l.Mean()/1000, l.open)
}
