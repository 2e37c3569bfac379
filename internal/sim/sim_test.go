package sim

import (
	"testing"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

func fig1Network(t *testing.T) *Network {
	t.Helper()
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	return FromTree(p, tree, DefaultOptions())
}

func TestNewBuildsConnectedNetwork(t *testing.T) {
	p := topo.Rooms(4, 3, 12, 3)
	n, err := New(p, 20, DefaultOptions())
	if err != nil {
		t.Skipf("topology disconnected: %v", err)
	}
	if err := n.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewDisconnectedFails(t *testing.T) {
	p := topo.NewPlacement()
	p.Positions[model.Sink] = topo.Point{}
	p.Positions[1] = topo.Point{X: 1e6}
	p.Groups[1] = 1
	if _, err := New(p, 10, DefaultOptions()); err == nil {
		t.Fatal("expected error for disconnected placement")
	}
}

func TestSendUpAccounting(t *testing.T) {
	n := fig1Network(t)
	payload := make([]byte, 16)
	if !n.SendUp(3, radio.KindData, 0, payload) {
		t.Fatal("SendUp failed on lossless link")
	}
	if got := n.Counter.TotalMessages(); got != 1 {
		t.Errorf("messages = %d", got)
	}
	wantBytes := 16 + radio.DefaultHeaderSize
	if got := n.Counter.TotalTxBytes(); got != wantBytes {
		t.Errorf("tx bytes = %d, want %d", got, wantBytes)
	}
	// Sender s3 pays tx, receiver s1 pays rx; sink pays nothing.
	if n.Ledger.Node(3) <= 0 {
		t.Error("sender not charged")
	}
	if n.Ledger.Node(1) <= 0 {
		t.Error("receiver not charged")
	}
}

func TestSendUpFromRootFails(t *testing.T) {
	n := fig1Network(t)
	if n.SendUp(model.Sink, radio.KindData, 0, nil) {
		t.Fatal("sink has no parent; SendUp must fail")
	}
}

func TestSinkNeverCharged(t *testing.T) {
	n := fig1Network(t)
	n.SendDown(model.Sink, 1, radio.KindBeacon, 0, []byte{1, 2, 3})
	if got := n.Ledger.Node(int(model.Sink)); got != 0 {
		t.Errorf("sink charged %v µJ; it is mains powered", got)
	}
	if n.Ledger.Node(1) <= 0 {
		t.Error("child receiver not charged for rx")
	}
}

func TestBroadcastDownReachesAll(t *testing.T) {
	n := fig1Network(t)
	reached := n.BroadcastDown(radio.KindBeacon, 0, nil)
	if len(reached) != 10 {
		t.Fatalf("reached %d nodes, want 10", len(reached))
	}
	// 9 edges -> 9 beacon messages.
	if got := n.Counter.Messages[radio.KindBeacon]; got != 9 {
		t.Errorf("beacon messages = %d, want 9", got)
	}
}

func TestBroadcastDownPerChildPayload(t *testing.T) {
	n := fig1Network(t)
	n.BroadcastDown(radio.KindBeacon, 0, func(c model.NodeID) []byte {
		return make([]byte, int(c)) // child i gets an i-byte payload
	})
	total := 0
	for c := model.NodeID(1); c <= 9; c++ {
		total += int(c) + radio.DefaultHeaderSize
	}
	if got := n.Counter.TxBytes[radio.KindBeacon]; got != total {
		t.Errorf("beacon bytes = %d, want %d", got, total)
	}
}

func TestRouteToSinkMultihop(t *testing.T) {
	n := fig1Network(t)
	// s6 is at depth 4 (6->5->4->1->0): 4 hops.
	if !n.RouteToSink(6, radio.KindData, 0, make([]byte, 8)) {
		t.Fatal("RouteToSink failed")
	}
	if got := n.Counter.TotalMessages(); got != 4 {
		t.Errorf("messages = %d, want 4 (one per hop)", got)
	}
	// Every hop retransmits the same 8+7 bytes.
	if got := n.Counter.TotalTxBytes(); got != 4*(8+radio.DefaultHeaderSize) {
		t.Errorf("tx bytes = %d", got)
	}
}

func TestBudgetsKillNodes(t *testing.T) {
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	opts := DefaultOptions()
	opts.BudgetJoules = 1e-6 // 1 µJ: dies on first transmission
	n := FromTree(p, tree, opts)
	if !n.SendUp(3, radio.KindData, 0, make([]byte, 8)) {
		t.Fatal("first send should succeed (budget spends into the red)")
	}
	if n.Alive(3) {
		t.Fatal("node 3 should be dead after exceeding its 1 µJ budget")
	}
	if n.SendUp(3, radio.KindData, 1, make([]byte, 8)) {
		t.Fatal("dead node transmitted")
	}
}

// TestRestoreEnergyResumesBudget checkpoints every node's energy mid-run,
// restores it onto a fresh network with the same budgets and drives both
// through the same epochs: a budget counts the picojoules the ledger counts,
// so the restored network spends, and kills its nodes, exactly where the
// run that never stopped does.
func TestRestoreEnergyResumesBudget(t *testing.T) {
	build := func() *Network {
		p := trace.Figure1Placement()
		tree := trace.Figure1Tree()
		opts := DefaultOptions()
		opts.BudgetJoules = 0.2
		return FromTree(p, tree, opts)
	}
	epoch := func(n *Network, e int) {
		n.ChargeIdleEpoch()
		for _, id := range n.Placement.SensorNodes() {
			n.SendUp(id, radio.KindData, model.Epoch(e), make([]byte, 1+(int(id)*7+e)%23))
		}
	}
	const checkpoint, epochs = 50, 600
	run := build()
	for e := 0; e < checkpoint; e++ {
		epoch(run, e)
	}
	restored := build()
	for _, id := range run.Placement.SensorNodes() {
		restored.RestoreEnergy(id, run.Ledger.Node(int(id)))
	}
	for e := checkpoint; e < epochs; e++ {
		epoch(run, e)
		epoch(restored, e)
		for _, id := range run.Placement.SensorNodes() {
			want, got := run.Budgets[id].Used(), restored.Budgets[id].Used()
			if got != want || restored.Alive(id) != run.Alive(id) {
				t.Fatalf("epoch %d: node %d spent %v µJ (alive %v), the unstopped run %v µJ (alive %v)",
					e, id, got, restored.Alive(id), want, run.Alive(id))
			}
			if led := run.Ledger.Node(int(id)); want != led {
				t.Fatalf("epoch %d: node %d budget spent %v µJ, its ledger account %v µJ", e, id, want, led)
			}
		}
	}
	deaths := 0
	for _, id := range run.Placement.SensorNodes() {
		if !run.Alive(id) {
			deaths++
		}
	}
	if deaths == 0 {
		t.Fatal("no node exhausted its budget: the restore was never tested at a death")
	}
}

func TestDeadReceiverDropsMessage(t *testing.T) {
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	opts := DefaultOptions()
	opts.BudgetJoules = 2e-5
	n := FromTree(p, tree, opts)
	n.Budgets[1].Spend(1e9) // kill s1
	if n.SendUp(3, radio.KindData, 0, make([]byte, 4)) {
		t.Fatal("message delivered to a dead parent")
	}
}

func TestChargeSenseAndIdle(t *testing.T) {
	n := fig1Network(t)
	n.ChargeSense(map[model.NodeID]model.Reading{5: {}})
	if n.Ledger.Node(5) != n.Energy.SenseCost {
		t.Errorf("sense charge = %v", n.Ledger.Node(5))
	}
	before := n.Ledger.Total()
	n.ChargeIdleEpoch()
	want := before + 9*n.Energy.IdlePerEpoch
	if got := n.Ledger.Total(); got != want {
		t.Errorf("after idle: %v, want %v", got, want)
	}
	// Sink is not idle-charged.
	if n.Ledger.Node(0) != 0 {
		t.Error("sink idle-charged")
	}
}

func TestSnapshotDelta(t *testing.T) {
	n := fig1Network(t)
	s0 := n.Snap()
	n.SendUp(3, radio.KindData, 0, make([]byte, 10))
	d := n.Delta(s0)
	if d.Messages != 1 || d.TxBytes != 10+radio.DefaultHeaderSize {
		t.Errorf("delta = %+v", d)
	}
	if d.EnergyUJ <= 0 {
		t.Error("delta energy not positive")
	}
}

func TestReset(t *testing.T) {
	n := fig1Network(t)
	n.SendUp(3, radio.KindData, 0, make([]byte, 10))
	n.Reset()
	if n.Counter.TotalMessages() != 0 || n.Ledger.Total() != 0 {
		t.Error("Reset did not clear accounting")
	}
}

// keyedLoss is a Bernoulli radio.FaultModel in the shape internal/faults
// gives every lossy link (which imports this package, so its tests cannot
// use it): a frame attempt is lost when a hash of its identity and the seed
// falls under the rate — whatever order the attempts are made in.
type keyedLoss struct {
	rate float64
	seed uint64
}

func (k keyedLoss) Frame(m radio.Message, frag, attempt int) radio.FrameFate {
	h := k.seed ^ uint64(m.From)<<48 ^ uint64(m.To)<<32 ^ uint64(m.Epoch)<<12 ^ uint64(frag)<<6 ^ uint64(attempt)
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	if float64((h^h>>31)>>11)/(1<<53) < k.rate {
		return radio.FrameLost
	}
	return radio.FrameOK
}

func TestLossyBroadcastDarkSubtree(t *testing.T) {
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	opts := DefaultOptions()
	opts.Radio.Fault = keyedLoss{rate: 0.995, seed: 3}
	opts.Radio.MaxRetries = 0
	n := FromTree(p, tree, opts)
	reached := n.BroadcastDown(radio.KindBeacon, 0, nil)
	if len(reached) >= 10 {
		t.Fatalf("a 99.5%% lossy beacon reached everyone (%d)", len(reached))
	}
	// A node can only be reached if its parent was.
	for id := range reached {
		if id == model.Sink {
			continue
		}
		if !reached[tree.Parent[id]] {
			t.Fatalf("node %d reached but parent %d was not", id, tree.Parent[id])
		}
	}
}
