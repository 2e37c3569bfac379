package stats

import (
	"strings"
	"testing"

	"kspot/internal/radio"
	"kspot/internal/sim"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

func testNet(t *testing.T) *sim.Network {
	t.Helper()
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	links := topo.NewLinks()
	for c, par := range tree.Parent {
		links.Connect(c, par)
	}
	return sim.FromTree(p, links, tree, sim.DefaultOptions())
}

func TestCollect(t *testing.T) {
	net := testNet(t)
	net.SendUp(3, radio.KindData, 0, make([]byte, 10))
	net.SendUp(5, radio.KindLB, 0, make([]byte, 4))
	r := Collect("mint", net, 2)
	if r.Messages != 2 || r.Algorithm != "mint" || r.Epochs != 2 {
		t.Fatalf("collect = %+v", r)
	}
	if r.PerKind[radio.KindData] != 10+radio.DefaultHeaderSize {
		t.Errorf("per-kind data bytes = %d", r.PerKind[radio.KindData])
	}
	if r.EnergyUJ <= 0 || r.EnergyMax <= 0 {
		t.Error("energy not collected")
	}
}

func TestCompare(t *testing.T) {
	run := RunStats{Algorithm: "mint", Messages: 50, Frames: 60, TxBytes: 500, EnergyUJ: 1000}
	base := RunStats{Algorithm: "tag", Messages: 100, Frames: 120, TxBytes: 2000, EnergyUJ: 4000}
	s := Compare(run, base)
	if s.Messages != 50 || s.Bytes != 75 || s.Energy != 75 || s.Frames != 50 {
		t.Fatalf("savings = %+v", s)
	}
	if !strings.Contains(s.String(), "mint vs tag") {
		t.Errorf("String = %q", s.String())
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	s := Compare(RunStats{Messages: 5}, RunStats{})
	if s.Messages != 0 {
		t.Error("zero baseline must not divide by zero")
	}
}

func TestTableRendering(t *testing.T) {
	rows := []RunStats{
		{Algorithm: "mint", Epochs: 10, Messages: 100, TxBytes: 1234, EnergyUJ: 5678, Correct: 100, Recall: 1},
		{Algorithm: "tag", Epochs: 10, Messages: 300, TxBytes: 9999, EnergyUJ: 20000, Correct: 100, Recall: 1},
	}
	out := Table("E3 snapshot savings", rows)
	if !strings.Contains(out, "E3 snapshot savings") || !strings.Contains(out, "mint") || !strings.Contains(out, "tag") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestPhaseTable(t *testing.T) {
	rows := []RunStats{{
		Algorithm: "tja",
		PerKind:   map[radio.MsgKind]int{radio.KindLB: 10, radio.KindHJ: 200, radio.KindCL: 5},
	}}
	out := PhaseTable("E8 phases", rows)
	for _, want := range []string{"lb", "hj", "cl", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("phase table missing %q:\n%s", want, out)
		}
	}
}

func TestSweepTable(t *testing.T) {
	series := []Series{
		{X: 1, Rows: []RunStats{{Algorithm: "mint", TxBytes: 10}}},
		{X: 2, Rows: []RunStats{{Algorithm: "mint", TxBytes: 20}}},
	}
	out := SweepTable("E6 k sweep", "k", series)
	if !strings.Contains(out, "k ") && !strings.Contains(out, " k") {
		t.Errorf("sweep table missing x column:\n%s", out)
	}
	if strings.Count(out, "mint") != 2 {
		t.Errorf("sweep rows missing:\n%s", out)
	}
}
