package engine_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/sim"
)

// denseScale1000 is scale-1000 at three times the radio radius: levels of
// 226, 596 and 178 nodes, wide enough that a sweep at a worker bound of 4
// shares them with spare workers.
func denseScale1000(t *testing.T) (*sim.Network, map[model.NodeID]model.Reading) {
	t.Helper()
	scen, err := config.ScaleScenario(1000)
	if err != nil {
		t.Fatal(err)
	}
	scen.Radius *= 3
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	net.SetParallel(4)
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	return net, engine.PresampleEpoch(net, src, 0)
}

// thinning is a prune that keeps the groups outside residue class i mod 7:
// each concurrent sweep ships different views.
func thinning(i int) engine.PruneFunc {
	return func(_ model.NodeID, v *model.View) *model.View {
		out := model.AcquireView()
		v.ForEach(func(p model.Partial) {
			if int(p.Group)%7 != i {
				out.AddPartial(p)
			}
		})
		return out
	}
}

// TestLiveConcurrentSweepsAndFloods keeps six sweeps and a flood in flight
// on one Live, round after round. On lossless links sweeps do not interact,
// so every sweep must return the view the same sweep returns alone on the
// deterministic substrate, the views handed out earlier must survive the
// later sweeps that recycle their frames, and the radio counters must add
// up to the sequential run's.
func TestLiveConcurrentSweepsAndFloods(t *testing.T) {
	const sweepers, rounds = 6, 5
	beacon := []byte{1, 2, 3}
	payload := func(model.NodeID) []byte { return beacon }

	ref, readings := denseScale1000(t)
	var want [sweepers][]byte
	for r := 0; r < rounds; r++ {
		for i := range want {
			enc := model.AppendView(nil, ref.Sweep(0, radio.KindData, readings, thinning(i)))
			if r > 0 && !bytes.Equal(enc, want[i]) {
				t.Fatalf("reference sweep %d is not repeatable", i)
			}
			want[i] = enc
		}
		ref.BroadcastDown(radio.KindBeacon, 0, payload)
	}

	net, _ := denseScale1000(t)
	live := engine.NewLive(net, engine.LiveOptions{})
	live.Start(context.Background())
	defer live.Stop()
	var views [sweepers][rounds]*model.View
	var wg sync.WaitGroup
	for i := 0; i < sweepers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				views[i][r] = live.Sweep(0, radio.KindData, readings, thinning(i))
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if reached := live.BroadcastDown(radio.KindBeacon, 0, payload); len(reached) != len(readings)+1 {
				t.Errorf("flood %d reached %d nodes, want %d", r, len(reached), len(readings)+1)
			}
		}
	}()
	wg.Wait()

	for i := range views {
		for r, v := range views[i] {
			if got := model.AppendView(nil, v); !bytes.Equal(got, want[i]) {
				t.Errorf("sweep %d round %d: sink view differs from the sequential run's", i, r)
			}
		}
	}
	got, seq := live.Snap(), ref.Snap()
	got.EnergyUJ, seq.EnergyUJ = 0, 0 // per-node float sums depend on the interleaving
	if got != seq {
		t.Errorf("counters: concurrent %+v, sequential %+v", got, seq)
	}
}

// TestLiveStopDuringSweep stops the deployment while a sweep is parked
// inside its prune callbacks: Stop returns without waiting, the sweep in
// flight runs to completion, later traffic panics as it does before Start,
// and the sweep's workers are gone.
func TestLiveStopDuringSweep(t *testing.T) {
	net, readings := denseScale1000(t)
	baseline := runtime.NumGoroutine()
	live := engine.NewLive(net, engine.LiveOptions{})
	live.Start(context.Background())

	entered := make(chan struct{}, len(readings)) // one slot per prune call: never blocks
	release := make(chan struct{})
	done := make(chan *model.View)
	go func() {
		done <- live.Sweep(0, radio.KindData, readings, func(_ model.NodeID, v *model.View) *model.View {
			entered <- struct{}{}
			<-release
			return v
		})
	}()
	<-entered
	live.Stop()
	close(release)
	var v *model.View
	select {
	case v = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the sweep in flight never returned after Stop")
	}
	if want := net.Placement.GroupIDs(); v.Len() != len(want) {
		t.Errorf("the sweep in flight returned %d groups, want all %d", v.Len(), len(want))
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Sweep after Stop did not panic")
			}
		}()
		live.Sweep(1, radio.KindData, readings, nil)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweep returned, %d before Start", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
