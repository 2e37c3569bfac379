package faults

import (
	"math"
	"testing"

	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

func fig1Net(t *testing.T, opts sim.Options) *sim.Network {
	t.Helper()
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	links := topo.NewLinks()
	for child, parent := range tree.Parent {
		links.Connect(child, parent)
	}
	return sim.FromTree(p, links, tree, opts)
}

func TestDrawIsIdentityDeterminedAndUniform(t *testing.T) {
	msg := radio.Message{From: 3, To: 1, Kind: radio.KindData, Epoch: 7, Payload: []byte{1, 2, 3}}
	if draw(42, msg, 0, 0, saltLoss) != draw(42, msg, 0, 0, saltLoss) {
		t.Fatal("same identity must give the same draw")
	}
	if draw(42, msg, 0, 0, saltLoss) == draw(42, msg, 0, 1, saltLoss) {
		t.Error("attempt must perturb the draw (retries need fresh randomness)")
	}
	if draw(42, msg, 0, 0, saltLoss) == draw(42, msg, 0, 0, saltDelay) {
		t.Error("salts must decorrelate fault dimensions")
	}
	if draw(42, msg, 0, 0, saltLoss) == draw(43, msg, 0, 0, saltLoss) {
		t.Error("seed must perturb the draw")
	}

	// Mean over many identities should be near 1/2, every value in [0,1).
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		m := radio.Message{From: model.NodeID(i % 50), To: model.NodeID(i % 7), Kind: radio.KindData, Epoch: model.Epoch(i)}
		v := draw(1, m, i%3, i%4, saltLoss)
		if v < 0 || v >= 1 {
			t.Fatalf("draw out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("draw mean = %.4f, want ~0.5", mean)
	}
}

// forcedFate drives Transmit through each FrameFate deterministically.
type forcedFate struct{ fate radio.FrameFate }

func (f forcedFate) Frame(radio.Message, int, int) radio.FrameFate { return f.fate }

func TestFrameFateAccounting(t *testing.T) {
	msg := radio.Message{From: 2, To: 1, Kind: radio.KindData, Epoch: 0, Payload: make([]byte, 10)}
	wire := 10 + radio.DefaultHeaderSize
	cases := []struct {
		name string
		fate radio.FrameFate
		want radio.Accounting
	}{
		{"ok", radio.FrameOK, radio.Accounting{Frames: 1, TxBytes: wire, RxBytes: wire, RxFrames: 1, Delivered: true}},
		{"lost", radio.FrameLost, radio.Accounting{Frames: 3, TxBytes: 3 * wire, Drops: 3, Delivered: false}},
		{"delayed", radio.FrameDelayed, radio.Accounting{Frames: 3, TxBytes: 3 * wire, RxBytes: 3 * wire, RxFrames: 3, Drops: 3, Delivered: false}},
		{"duplicated", radio.FrameDuplicated, radio.Accounting{Frames: 2, TxBytes: 2 * wire, RxBytes: 2 * wire, RxFrames: 2, Delivered: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := radio.DefaultConfig()
			cfg.MaxRetries = 2
			cfg.Fault = forcedFate{tc.fate}
			got := radio.NewLink(cfg).Transmit(msg)
			if got != tc.want {
				t.Errorf("accounting = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestBernoulliDeterminism replays the identical traffic on two fresh
// networks and demands bit-identical counters — the property the
// substrate-equivalence suite leans on.
func TestBernoulliDeterminism(t *testing.T) {
	run := func() sim.Snapshot {
		net := fig1Net(t, sim.DefaultOptions())
		if err := Arm(net, Config{Seed: 7, Loss: 0.3}); err != nil {
			t.Fatal(err)
		}
		for e := model.Epoch(0); e < 40; e++ {
			for _, id := range net.Placement.SensorNodes() {
				net.RouteToSink(id, radio.KindData, e, make([]byte, model.ReadingWireSize))
			}
		}
		return net.Snap()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged: %+v vs %+v", a, b)
	}
	if a.Messages == 0 {
		t.Fatal("nothing was delivered under 30% loss — loss model too aggressive or transport broken")
	}
	lossless := fig1Net(t, sim.DefaultOptions())
	for e := model.Epoch(0); e < 40; e++ {
		for _, id := range lossless.Placement.SensorNodes() {
			lossless.RouteToSink(id, radio.KindData, e, make([]byte, model.ReadingWireSize))
		}
	}
	clean := lossless.Snap()
	if a.Messages >= clean.Messages {
		t.Errorf("30%% loss delivered %d messages, lossless delivered %d — loss had no effect", a.Messages, clean.Messages)
	}
	if a.Frames <= clean.Frames {
		t.Errorf("30%% loss used %d frames, lossless %d — retries should add frames", a.Frames, clean.Frames)
	}
}

func TestBurstChainsAreOrderIndependent(t *testing.T) {
	spec := BurstSpec{PGoodBad: 0.3, PBadGood: 0.4, LossBad: 0.8}
	msg := func(e model.Epoch) radio.Message {
		return radio.Message{From: 4, To: 2, Kind: radio.KindData, Epoch: e}
	}
	forward := burstLoss(spec, 11)
	var inOrder []float64
	for e := model.Epoch(0); e < 50; e++ {
		inOrder = append(inOrder, forward(msg(e)))
	}
	// A second chain probed backwards (forcing replays) must agree.
	backward := burstLoss(spec, 11)
	for e := 49; e >= 0; e-- {
		if got := backward(msg(model.Epoch(e))); got != inOrder[e] {
			t.Fatalf("epoch %d: backward probe %v, forward %v", e, got, inOrder[e])
		}
	}
	// Both states must actually occur over 50 epochs with these rates.
	seenBad, seenGood := false, false
	for _, p := range inOrder {
		if p == spec.LossBad {
			seenBad = true
		} else {
			seenGood = true
		}
	}
	if !seenBad || !seenGood {
		t.Errorf("chain never changed state over 50 epochs (bad=%v good=%v)", seenBad, seenGood)
	}
}

func TestDistanceLossGrowsWithLinkLength(t *testing.T) {
	p := topo.NewPlacement()
	p.Positions[model.Sink] = topo.Point{X: 0, Y: 0}
	p.Positions[1] = topo.Point{X: 10, Y: 0}
	p.Positions[2] = topo.Point{X: 40, Y: 0}
	at := distanceLoss(DistanceSpec{PAtRef: 0.1, Ref: 10}, p)
	near := at(radio.Message{From: 1, To: model.Sink})
	far := at(radio.Message{From: 2, To: model.Sink})
	if near != 0.1 {
		t.Errorf("loss at reference distance = %v, want 0.1", near)
	}
	if far <= near {
		t.Errorf("longer link must lose more: near %v, far %v", near, far)
	}
	if far > 0.95 {
		t.Errorf("loss must respect the ceiling: %v", far)
	}
}

func TestChurnKillsAndRevives(t *testing.T) {
	net := fig1Net(t, sim.DefaultOptions())
	if err := Arm(net, Config{Churn: []ChurnEvent{
		{Node: 4, Epoch: 5, Down: false},
		{Node: 4, Epoch: 2, Down: true},
	}}); err != nil {
		t.Fatal(err)
	}
	send := func(e model.Epoch) bool {
		return net.SendUp(4, radio.KindData, e, nil)
	}
	if !send(0) || !send(1) {
		t.Fatal("node 4 should deliver before its death")
	}
	if send(2) || send(3) || send(4) {
		t.Error("node 4 should be dead during epochs [2,5)")
	}
	if net.Alive(4) {
		t.Error("Alive must report the churned node dead")
	}
	if !send(5) || !send(6) {
		t.Error("node 4 should deliver after revival")
	}

	// Epoch advance is monotone: replaying an old epoch re-fires nothing.
	if !send(0) || !net.Alive(4) {
		t.Error("a transmission at a past epoch must not re-fire events")
	}
}

func TestChurnRespectsExhaustedBudget(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.BudgetJoules = 1e-9 // effectively nothing
	net := fig1Net(t, opts)
	// Exhaust node 3's budget.
	net.Budgets[3].Spend(10)
	if net.Alive(3) {
		t.Fatal("node 3 should be battery-dead")
	}
	if err := Arm(net, Config{Churn: []ChurnEvent{{Node: 3, Epoch: 1, Down: false}}}); err != nil {
		t.Fatal(err)
	}
	net.SendUp(1, radio.KindData, 1, nil) // epoch 1's first transmission fires the revival
	if net.Alive(3) {
		t.Error("churn revival must not resurrect a battery-dead node")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"loss", Config{Loss: 0.1}, true},
		{"loss out of range", Config{Loss: 1.0}, false},
		{"negative dup", Config{Duplicate: -0.1}, false},
		{"two models", Config{Loss: 0.1, Burst: &BurstSpec{PGoodBad: 0.1, PBadGood: 0.5, LossBad: 0.5}}, false},
		{"distance needs ref", Config{Distance: &DistanceSpec{PAtRef: 0.1}}, false},
		{"sink churn", Config{Churn: []ChurnEvent{{Node: model.Sink, Epoch: 1, Down: true}}}, false},
		{"full house", Config{Seed: 1, Burst: &BurstSpec{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.6}, Duplicate: 0.02, Delay: 0.02, Churn: []ChurnEvent{{Node: 2, Epoch: 3, Down: true}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("want validation error, got nil")
			}
		})
	}
	if (&Config{}).Enabled() {
		t.Error("zero config must report disabled")
	}
	if !(&Config{Delay: 0.1}).Enabled() {
		t.Error("delay-only config must report enabled")
	}
}

// draw composes msgDigest+frameDigest+unit in one call.
func draw(seed int64, msg radio.Message, frag, attempt int, salt uint64) float64 {
	return unit(frameDigest(msgDigest(seed, msg), frag, attempt), salt)
}
