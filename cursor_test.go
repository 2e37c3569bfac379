package kspot

import (
	"errors"
	"testing"

	"kspot/internal/model"
	"kspot/internal/trace"
)

func TestWindowAggSourceAverages(t *testing.T) {
	base := trace.NewFixture(map[model.NodeID][]model.Value{
		1: {10, 20, 30, 40},
	})
	src := trace.WindowAgg(base, 2, model.AggAvg)
	// At epoch 3 the trailing 2-window is {30, 40} -> 35.
	if got := src.Sample(1, 3); got != 35 {
		t.Errorf("Sample(1,3) = %v, want 35", got)
	}
	// At epoch 0 the window clips to {10}.
	if got := src.Sample(1, 0); got != 10 {
		t.Errorf("Sample(1,0) = %v, want 10", got)
	}
}

func TestWindowAggSourceMinMax(t *testing.T) {
	base := trace.NewFixture(map[model.NodeID][]model.Value{
		1: {10, 50, 30},
	})
	if got := trace.WindowAgg(base, 3, model.AggMax).Sample(1, 2); got != 50 {
		t.Errorf("MAX window = %v", got)
	}
	if got := trace.WindowAgg(base, 3, model.AggMin).Sample(1, 2); got != 10 {
		t.Errorf("MIN window = %v", got)
	}
}

func TestCursorPlanAndQueryAccessors(t *testing.T) {
	sys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Post("select top 2 roomid, avg(sound) from sensors group by roomid")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Plan() != "snapshot/mint" {
		t.Errorf("Plan = %q", cur.Plan())
	}
	if cur.Query() == "" {
		t.Error("empty canonical query")
	}
}

// TestCursorLeftBehindFailsWithLagError: a cursor that another cursor's
// steps ran 250 epochs ahead of steps through the 200 epochs kept for it,
// then fails every Step with a *LagError naming the first epoch not kept,
// while the cursor ahead steps on.
func TestCursorLeftBehindFailsWithLagError(t *testing.T) {
	sys, err := Open(DemoScenario())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var curs []*Cursor
	for _, sql := range []string{demoSQL, "SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid"} {
		cur, err := sys.Post(sql)
		if err != nil {
			t.Fatal(err)
		}
		curs = append(curs, cur)
	}
	ahead, behind := curs[0], curs[1]
	step := func(cur *Cursor, n, from int) {
		for e := from; e < from+n; e++ {
			if res, err := cur.Step(); err != nil || res.Epoch != Epoch(e) || !res.Correct {
				t.Fatalf("epoch %d: %+v (err %v), want it answered exactly", e, res, err)
			}
		}
	}
	step(ahead, 250, 0)
	step(behind, 200, 0)
	for i := 0; i < 2; i++ {
		var lag *LagError
		if _, err := behind.Step(); !errors.As(err, &lag) || lag.Epoch != 200 {
			t.Fatalf("cursor left behind: %v, want a *LagError at epoch 200", err)
		}
	}
	step(ahead, 1, 250)
}

func TestFILAThroughFacade(t *testing.T) {
	// FILA requires per-node groups: build a scenario where each sensor is
	// its own cluster.
	scen := DemoScenario()
	for i := range scen.Nodes {
		scen.Nodes[i].Cluster = scen.Nodes[i].ID
	}
	scen.Clusters = nil
	for _, n := range scen.Nodes {
		scen.Clusters = append(scen.Clusters, clusterFor(n.ID))
	}
	sys, err := Open(scen)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoFILA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cur.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("fila answers = %v", res.Answers)
	}

	// And it must refuse cluster groupings.
	sysC, _ := Open(DemoScenario())
	if _, err := sysC.PostWith("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", AlgoFILA); err == nil {
		t.Fatal("FILA accepted multi-member clusters")
	}
}

func clusterFor(id uint16) Cluster { return Cluster{ID: id} }
