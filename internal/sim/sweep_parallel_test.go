package sim

import (
	"bytes"
	"testing"

	"kspot/internal/model"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

// field is a deployment topology for the sweep tests, built once and
// shared by the networks of every run (sweeps only read it).
type field struct {
	p    *topo.Placement
	tree *topo.Tree
}

func newField(t *testing.T, rooms, perRoom int, radius float64) field {
	t.Helper()
	p := topo.Rooms(rooms, perRoom, 12, 77)
	tree, err := topo.BuildTree(p, topo.DiskLinks(p, radius))
	if err != nil {
		t.Fatalf("build tree: %v", err)
	}
	return field{p, tree}
}

// deepField is 120 nodes over 7 narrow levels: the level-synchronous order
// alone, no level is wide enough to wake a spare worker.
func deepField(t *testing.T) field { return newField(t, 12, 10, 25) }

// wideField is 1600 nodes in two levels of 874 and 726: every level is
// shared with up to three spares (shareNodes).
func wideField(t *testing.T) field { return newField(t, 16, 100, 40) }

// sweepRun drives epochs of lossy, budget-constrained sweeps at a given
// worker count and returns the concatenated encoded root views plus the
// final accounting snapshot — the byte-identity fingerprint of the run.
func sweepRun(t *testing.T, fd field, workers, epochs int, prune func(model.NodeID, *model.View, *model.View) *model.View) ([]byte, Snapshot, float64) {
	t.Helper()
	opts := DefaultOptions()
	opts.Radio.Fault = keyedLoss{rate: 0.08, seed: 42}
	opts.BudgetJoules = 0.004 // tight: some nodes die mid-run
	opts.Parallel = workers
	p := fd.p
	n := FromTree(p, fd.tree, opts)
	src := trace.NewRoomActivity(9, p.Groups, 12)
	var roots []byte
	for e := model.Epoch(0); e < model.Epoch(epochs); e++ {
		readings := make(map[model.NodeID]model.Reading)
		for _, id := range p.SensorNodes() {
			if n.Alive(id) {
				readings[id] = model.Reading{Node: id, Group: p.Groups[id], Epoch: e, Value: src.Sample(id, e)}
			}
		}
		root := n.Sweep(e, 1, readings, prune)
		roots = model.AppendView(roots, root)
	}
	return roots, n.Snap(), n.Ledger.Total()
}

// TestSweepParallelByteIdentity pins the house conformance bar for the
// level-synchronous sweep: for every worker count, answers, messages,
// frames, bytes, drops and the energy ledger are bit-for-bit identical to
// the sequential walk — including the per-frame loss draws, which are keyed
// on the frame and so cannot depend on the order the commit phase makes
// them in; the budget charges they cause still do.
func TestSweepParallelByteIdentity(t *testing.T) {
	prunes := map[string]func(model.NodeID, *model.View, *model.View) *model.View{
		"tag-full-views": nil,
		"thinning": func(node model.NodeID, v, out *model.View) *model.View {
			v.ForEach(func(pt model.Partial) {
				if pt.Group%3 != 0 {
					out.AddPartial(pt)
				}
			})
			return out
		},
		"suppress-some": func(node model.NodeID, v, _ *model.View) *model.View {
			if node%5 == 0 {
				return nil // packet suppression path
			}
			return v
		},
	}
	fields := map[string]field{"deep": deepField(t), "wide": wideField(t)}
	for name, prune := range prunes {
		t.Run(name, func(t *testing.T) {
			for fname, fd := range fields {
				t.Run(fname, func(t *testing.T) {
					wantRoots, wantSnap, wantUJ := sweepRun(t, fd, 1, 25, prune)
					if wantSnap.Drops == 0 {
						t.Fatal("no frame was dropped: the run does not exercise the loss draws")
					}
					for _, workers := range []int{2, 3, 8} {
						roots, snap, uj := sweepRun(t, fd, workers, 25, prune)
						if !bytes.Equal(roots, wantRoots) {
							t.Errorf("workers=%d: root views diverge from sequential", workers)
						}
						if snap != wantSnap {
							t.Errorf("workers=%d: accounting %+v, want %+v", workers, snap, wantSnap)
						}
						if uj != wantUJ {
							t.Errorf("workers=%d: ledger %.6f µJ, want %.6f µJ", workers, uj, wantUJ)
						}
					}
				})
			}
		})
	}
}

// TestSweepParallelPrunePanicPropagates pins that a panic inside a prune
// callback surfaces on the sweeping goroutine (not a worker crash) for both
// the sequential and parallel paths — on the wide field, where every
// worker of the pool panics.
func TestSweepParallelPrunePanicPropagates(t *testing.T) {
	fd := wideField(t)
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Parallel = workers
		n := FromTree(fd.p, fd.tree, opts)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: prune panic did not propagate", workers)
				}
			}()
			n.Sweep(0, 1, nil, func(model.NodeID, *model.View, *model.View) *model.View {
				panic("boom")
			})
		}()
	}
}
