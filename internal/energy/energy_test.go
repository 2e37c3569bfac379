package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMICA2Sanity(t *testing.T) {
	m := MICA2()
	if m.TxPerByte <= m.RxPerByte {
		t.Error("transmitting must cost more per byte than receiving on a CC1000")
	}
	if m.TxPerPacket <= 0 || m.RxPerPacket <= 0 {
		t.Error("per-packet overheads must be positive")
	}
}

func TestBudgetSpendAndDeath(t *testing.T) {
	b := NewBudget(1e-6) // 1 µJ capacity
	if b.Dead() {
		t.Fatal("fresh budget dead")
	}
	if !b.Spend(0.5) {
		t.Fatal("spend within budget refused")
	}
	if b.Dead() {
		t.Fatal("dead after spending half")
	}
	if !b.Spend(1.0) {
		t.Fatal("the spend that kills the node must still be accepted")
	}
	if !b.Dead() {
		t.Fatal("budget should be exhausted")
	}
	if b.Spend(0.1) {
		t.Fatal("dead node accepted a spend")
	}
	if got := b.Used(); got != 1.5 {
		t.Errorf("Used = %v, want 1.5 (a refused spend costs nothing)", got)
	}
}

func TestBudgetUnlimited(t *testing.T) {
	var b Budget
	if !b.Spend(1e12) || b.Dead() {
		t.Error("zero-capacity budget must be unlimited")
	}
	if got := b.Used(); got != 1e12 {
		t.Errorf("Used = %v, want 1e12", got)
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(0)
	l.Charge(1, 100)
	l.Charge(2, 300)
	l.Charge(1, 50)
	if got := l.Node(1); got != 150 {
		t.Errorf("Node(1) = %v", got)
	}
	if got := l.Total(); got != 450 {
		t.Errorf("Total = %v", got)
	}
	if got := l.Max(); got != 300 {
		t.Errorf("Max = %v", got)
	}
	if got := l.Mean(); got != 225 {
		t.Errorf("Mean = %v", got)
	}
	if nodes := l.Nodes(); len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestLedgerEmpty(t *testing.T) {
	l := NewLedger(0)
	if l.Mean() != 0 || l.Total() != 0 || l.Max() != 0 {
		t.Error("empty ledger must report zeros")
	}
	if !math.IsInf(l.LifetimeEpochs(10, 100), 1) {
		t.Error("no consumption means infinite lifetime")
	}
}

func TestLifetimeEpochs(t *testing.T) {
	l := NewLedger(0)
	l.Charge(1, 1000) // 1000 µJ over 10 epochs -> 100 µJ/epoch
	l.Charge(2, 500)
	got := l.LifetimeEpochs(1e-3, 10) // 1 mJ budget / 100 µJ per epoch = 10 epochs
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("LifetimeEpochs = %v, want 10", got)
	}
	if !math.IsInf(l.LifetimeEpochs(1, 0), 1) {
		t.Error("zero measured epochs must report +Inf")
	}
}

// Property: ledger totals are additive regardless of charge interleaving.
func TestLedgerAdditivityProperty(t *testing.T) {
	f := func(charges []uint16) bool {
		l := NewLedger(0)
		var want float64
		for i, c := range charges {
			l.Charge(i%5, float64(c))
			want += float64(c)
		}
		return math.Abs(l.Total()-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerString(t *testing.T) {
	l := NewLedger(0)
	l.Charge(0, 1500)
	if s := l.String(); s == "" {
		t.Error("empty String()")
	}
}
