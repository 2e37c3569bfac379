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
	runRows(t, []row{{name: "figure1", world: "figure1", epochs: 3, checks: []check{figure1Answer},
		queries: []rowQuery{{"SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min", AlgoAuto}}}})
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

// TestHistoricQueryEndToEnd: a WITH HISTORY query on the diurnal demo is
// one-shot — it Runs, it does not Step — and answers its five instants
// alike under the default TJA, TPUT and the centralized baseline.
func TestHistoricQueryEndToEnd(t *testing.T) {
	const sql = "SELECT TOP 5 timeinstant, AVG(temp) FROM sensors WITH HISTORY 64"
	tja := memo(t, row{world: "demo-diurnal", parallel: 1, queries: []rowQuery{{sql, AlgoAuto}}})
	runRows(t, grid(row{name: "%[1]s", world: "demo-diurnal", queries: []rowQuery{{sql: sql}}, checks: []check{
		func(t *testing.T, _ row, _ *System, got outcome) {
			if len(got.historic) != 1 {
				t.Fatal("the historic query was posted as a continuous one")
			}
			compare(t, "vs TJA", got, tja, false)
		}}}, []Algorithm{AlgoTPUT, AlgoCentral}, []int{0}, []int{1}))
}

func TestHistoricGroupQuery(t *testing.T) {
	runRows(t, []row{{name: "demo", world: "demo", epochs: 5, queries: []rowQuery{{"SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8", AlgoAuto}},
		checks: []check{planIs("historic-group/mint")}}})
}

// planIs: the row's first query plans as plan.
func planIs(plan string) check {
	return func(t *testing.T, r row, sys *System, _ outcome) {
		if cur, err := sys.PostWith(r.queries[0].sql, r.queries[0].algo); err != nil || cur.Plan() != plan {
			t.Fatalf("plan = %v (%v), want %s", cur, err, plan)
		}
	}
}

// TestBasicQuery: a basic GROUP BY returns every cluster, ranked.
func TestBasicQuery(t *testing.T) {
	runRows(t, []row{{name: "demo", world: "demo", epochs: 1, queries: []rowQuery{{"SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoAuto}},
		checks: []check{func(t *testing.T, _ row, _ *System, got outcome) {
			if len(got.steps[0][0].Answers) != 6 {
				t.Fatalf("basic answers = %v", got.steps[0][0].Answers)
			}
		}}}})
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

// TestReopenedStoreReportsTheRestartedClock: a local System reopened on
// its data dir restarts its clock at 0, behind the recovered epoch; the
// store records nothing for it and says so in the storage block and the
// panel, beside a real failure, until its clock passes the recovered epoch
// and a record lands again. The real failure stays.
func TestReopenedStoreReportsTheRestartedClock(t *testing.T) {
	dir := t.TempDir()
	var sys *System
	var cur *Cursor
	open := func() {
		var err error
		if sys, err = Open(DemoScenario(), WithDataDir(dir)); err != nil {
			t.Fatal(err)
		}
		if cur, err = sys.Post(demoSQL); err != nil {
			t.Fatal(err)
		}
	}
	// expect steps n more epochs, then requires the storage block to hold
	// the last recorded epoch and report exactly errs, and the panel to say
	// NOT PERSISTING iff it does.
	expect := func(n int, last Epoch, errs ...string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cur.Step(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := sys.StorageStats()
		if err != nil {
			t.Fatal(err)
		}
		if panel := sys.SystemPanel(nil); st[0].Err != strings.Join(errs, "; ") || st[0].LastEpoch != last || strings.Contains(panel, "NOT PERSISTING") != (len(errs) > 0) {
			t.Fatalf("after %d more steps: storage block %+v, panel:\n%s", n, st[0], panel)
		}
	}
	const behind, full = "storage: epoch 0 is behind the recorded epoch 19, not recorded", "write shard.log: no space left on device"
	open()
	expect(20, 19)
	sys.Close()
	open()
	defer sys.Close()
	expect(1, 19, behind)
	sys.local[0].Store().Fail(errors.New(full))
	expect(0, 19, full, behind)
	expect(20, 20, full)
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
	base := row{world: "demo", epochs: 10, checks: []check{panelNames("| epochs    : 10 ")},
		queries: []rowQuery{{"SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min", AlgoAuto}}}
	federated := base
	federated.name, federated.shards, federated.wire = "federated", 2, true
	base.name = "flat"
	runRows(t, []row{base, federated})
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
