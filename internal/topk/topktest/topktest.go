// Package topktest provides shared fixtures for operator tests: the paper's
// Figure 1 network, random multi-room networks, and historic window data.
// It lives under internal/topk so every operator package tests against the
// identical worlds.
package topktest

import (
	"testing"

	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/storage"
	"kspot/internal/topo"
	"kspot/internal/trace"
)

// Fig1Network builds the Figure 1 network over the paper's literal routing
// tree with default (lossless) options.
func Fig1Network(t testing.TB) *sim.Network {
	t.Helper()
	return Fig1NetworkOpts(t, sim.DefaultOptions())
}

// Fig1NetworkOpts builds the Figure 1 network with custom options.
func Fig1NetworkOpts(t testing.TB, opts sim.Options) *sim.Network {
	t.Helper()
	p := trace.Figure1Placement()
	tree := trace.Figure1Tree()
	links := topo.NewLinks()
	for child, parent := range tree.Parent {
		links.Connect(child, parent)
	}
	return sim.FromTree(p, links, tree, opts)
}

// roomsRetries is how many derived seeds a random layout gets before a
// suite gives up on it.
const roomsRetries = 5

// connectedRooms builds a g×perRoom rooms placement that is radio-connected
// at radius 30, retrying with derived seeds (seed+1, seed+2, ...) when the
// random layout disconnects. Returns the placement, the seed that
// produced it, and the last error when every derived seed failed.
func connectedRooms(g, perRoom int, seed int64) (*topo.Placement, int64, error) {
	var err error
	for i := int64(0); i < roomsRetries; i++ {
		p := topo.Rooms(g, perRoom, 12, seed+i)
		if _, err = topo.BuildTree(p, topo.DiskLinks(p, 30)); err == nil {
			return p, seed + i, nil
		}
	}
	return nil, seed, err
}

// RoomsNetwork builds a g-room, perRoom-sensors-per-room network with a
// radio radius that keeps it connected. A disconnected random layout is
// retried on derived seeds (seed+1, ...) so randomized suites don't
// silently lose coverage; only when every retry disconnects is the test
// skipped.
func RoomsNetwork(t testing.TB, g, perRoom int, seed int64) *sim.Network {
	t.Helper()
	p, _, err := connectedRooms(g, perRoom, seed)
	if err != nil {
		t.Skipf("topology disconnected for seeds %d..%d: %v", seed, seed+roomsRetries-1, err)
	}
	net, err := sim.New(p, 30, sim.DefaultOptions())
	if err != nil {
		t.Fatalf("connected placement failed to build: %v", err)
	}
	return net
}

// GridNetwork builds an n-node grid network (n must be a perfect square)
// regrouped into g contiguous groups.
func GridNetwork(t testing.TB, n, g int) *sim.Network {
	t.Helper()
	p, err := topo.Grid(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	p.RegroupContiguous(g)
	net, err := sim.New(p, 15, sim.DefaultOptions())
	if err != nil {
		t.Fatalf("grid disconnected: %v", err)
	}
	return net
}

// WindowData buffers a source into a historic window for every sensor,
// quantized as a shard's buffers store it (storage.BufferSeries).
func WindowData(t testing.TB, net *sim.Network, src trace.Source, window int) map[model.NodeID][]model.Value {
	t.Helper()
	series, err := storage.BufferSeries(net.Placement.SensorNodes(), window, src.Sample)
	if err != nil {
		t.Fatal(err)
	}
	return series
}
