package kspot

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"kspot/internal/trace"
)

func TestOpenDemoScenario(t *testing.T) {
	sys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Network().Placement.SensorNodes()); got != 14 {
		t.Fatalf("demo sensors = %d", got)
	}
}

func TestFigure1EndToEnd(t *testing.T) {
	sys, err := Open(Figure1Scenario())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Continuous() {
		t.Fatal("snapshot query must be continuous")
	}
	for i := 0; i < 3; i++ {
		res, err := cur.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("epoch %d incorrect: %v vs %v", res.Epoch, res.Answers, res.Exact)
		}
		if res.Answers[0].Group != trace.Fig1RoomC || res.Answers[0].Score != 75 {
			t.Fatalf("answers = %v, want (C,75)", res.Answers)
		}
	}
}

func TestNaiveReproducesPaperBug(t *testing.T) {
	sys, err := Open(Figure1Scenario())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.PostWith("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoNaive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cur.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("naive should err on Figure 1")
	}
	if res.Answers[0].Group != trace.Fig1RoomD || res.Answers[0].Score != 76.5 {
		t.Fatalf("naive answer = %v, want (D, 76.5)", res.Answers[0])
	}
}

func TestHistoricQueryEndToEnd(t *testing.T) {
	s := DemoScenario()
	s.Workload.Kind = "diurnal"
	sys, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT TOP 5 timeinstant, AVG(temp) FROM sensors WITH HISTORY 64")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Continuous() {
		t.Fatal("historic query must not be continuous")
	}
	tjaAns, err := cur.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tjaAns) != 5 {
		t.Fatalf("answers = %v", tjaAns)
	}
	// TPUT and centralized must agree on the same scenario.
	for _, algo := range []Algorithm{AlgoTPUT, AlgoCentral} {
		cur2, err := sys.PostWith("SELECT TOP 5 timeinstant, AVG(temp) FROM sensors WITH HISTORY 64", algo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cur2.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range tjaAns {
			if got[i] != tjaAns[i] {
				t.Fatalf("%s disagrees with tja: %v vs %v", algo, got, tjaAns)
			}
		}
	}
}

func TestHistoricGroupQuery(t *testing.T) {
	sys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Plan() != "historic-group/mint" {
		t.Fatalf("plan = %s", cur.Plan())
	}
	for i := 0; i < 5; i++ {
		res, err := cur.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("epoch %d: %v vs %v", res.Epoch, res.Answers, res.Exact)
		}
	}
}

func TestBasicQuery(t *testing.T) {
	sys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cur.Step()
	if err != nil {
		t.Fatal(err)
	}
	// A basic GROUP BY returns every cluster, ranked.
	if len(res.Answers) != 6 {
		t.Fatalf("basic answers = %v", res.Answers)
	}
}

func TestStepRunMisuse(t *testing.T) {
	sys, _ := Open(DemoScenario())
	snap, err := sys.Post("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Run(); err == nil {
		t.Error("Run on a continuous cursor accepted")
	}
	hist, err := sys.Post("SELECT TOP 1 timeinstant, AVG(sound) FROM sensors WITH HISTORY 16")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hist.Step(); err == nil {
		t.Error("Step on a historic cursor accepted")
	}
}

func TestPostErrors(t *testing.T) {
	sys, _ := Open(DemoScenario())
	if _, err := sys.Post("SELEKT nonsense"); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := sys.PostWith("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoTJA); err == nil {
		t.Error("historic algorithm on snapshot query accepted")
	}
	if _, err := sys.PostWith("SELECT sound FROM sensors", AlgoMINT); err == nil {
		t.Error("pinned MINT on basic query accepted")
	}
}

func TestSystemPanelAndDisplay(t *testing.T) {
	sys, _ := Open(DemoScenario(), WithDataDir(t.TempDir()))
	defer sys.Close()
	cur, _ := sys.Post("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	var last StepResult
	for i := 0; i < 5; i++ {
		last, _ = cur.Step()
	}
	panel := sys.SystemPanel(nil)
	if !strings.Contains(panel, "SYSTEM PANEL") {
		t.Error("panel missing")
	}
	// The durable tier's line: one log file, and — once the shard stops
	// persisting — the failure, here and in the /stats storage block.
	if !strings.Contains(panel, "1 log files") || !strings.Contains(panel, "last checkpoint epoch 4") || strings.Contains(panel, "NOT PERSISTING") {
		t.Errorf("storage line:\n%s", panel)
	}
	healthy, _ := sys.StorageStats()
	sys.local[0].Store().Fail(errors.New("write shard.log: no space left on device"))
	failed, _ := sys.StorageStats()
	if !strings.Contains(sys.SystemPanel(nil), "NOT PERSISTING: write shard.log: no space left on device") {
		t.Errorf("failed storage line:\n%s", sys.SystemPanel(nil))
	}
	if h, _ := json.Marshal(healthy[0]); strings.Contains(string(h), "error") {
		t.Errorf("healthy storage block %s", h)
	}
	if f, _ := json.Marshal(failed[0]); !strings.Contains(string(f), `"error":"write shard.log: no space left on device"`) || !strings.Contains(string(f), `"segments":1`) {
		t.Errorf("failed storage block %s", f)
	}
	display := sys.DisplayPanel(last.Answers, 72, 20)
	if !strings.Contains(display, "SINK") || !strings.Contains(display, "(1)") {
		t.Errorf("display panel:\n%s", display)
	}
	strip := sys.RankingStrip(last.Answers)
	if !strings.Contains(strip, "1.") {
		t.Errorf("strip = %q", strip)
	}
}

func TestCaptureStatsComparison(t *testing.T) {
	sys, _ := Open(DemoScenario())
	tagCur, _ := sys.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoTAG)
	for i := 0; i < 20; i++ {
		tagCur.Step()
	}
	base := sys.CaptureStats("tag", 20)

	sys.ResetAccounting()
	mintCur, _ := sys.Post("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
	for i := 0; i < 20; i++ {
		mintCur.Step()
	}
	panel := sys.SystemPanel(&base)
	if !strings.Contains(panel, "byte savings") {
		t.Errorf("panel lacks savings:\n%s", panel)
	}
}

// TestSystemPanelCountsEpochs: the panel's epoch count is the one the
// shards counted — the quickstart's ten steps read "epochs : 10", flat and
// over the wire, where the count rides the shards' rows.
func TestSystemPanelCountsEpochs(t *testing.T) {
	const sql = "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min"
	flat, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	addrs, _ := startWireShards(t, shardedDemo(t, 2), 0)
	remote, err := OpenFederated(shardedDemo(t, 2), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for name, sys := range map[string]*System{"flat": flat, "federated": remote} {
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := cur.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if panel := sys.SystemPanel(nil); !strings.Contains(panel, "| epochs    : 10 ") {
			t.Errorf("%s panel after ten steps:\n%s", name, panel)
		}
	}
}

func TestOpenFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/demo.json"
	if err := DemoScenario().Save(path); err != nil {
		t.Fatal(err)
	}
	sys, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Scenario().Name != "icde09-demo" {
		t.Fatalf("scenario = %q", sys.Scenario().Name)
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile("/does/not/exist.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
