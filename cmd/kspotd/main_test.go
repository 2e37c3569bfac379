package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kspot"
	"kspot/internal/serve"
	"kspot/internal/wire"
)

// newTestWorkload opens the demo deployment with the primary query posted,
// as main does, under a two-query admission cap.
func newTestWorkload(t *testing.T) *workload {
	t.Helper()
	sys, err := kspot.Open(kspot.DemoScenario(), kspot.WithAdmission(kspot.AdmissionConfig{MaxQueries: 2}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	wl := newWorkload(sys, nil)
	if _, err := wl.add(primarySQL, ""); err != nil {
		t.Fatal(err)
	}
	return wl
}

// watchEpochs streams /watch?query=N and delivers each event's epoch.
func watchEpochs(t *testing.T, base string, query string) <-chan int {
	t.Helper()
	resp, err := http.Get(base + "/watch?query=" + query)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %s", resp.Status)
	}
	epochs := make(chan int, 64) // holds every event a test publishes: the reader never blocks
	go func() {
		defer close(epochs)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var res serve.Result
			if json.Unmarshal([]byte(data), &res) != nil {
				return
			}
			epochs <- int(res.Epoch)
		}
	}()
	return epochs
}

func nextEpoch(t *testing.T, epochs <-chan int) int {
	t.Helper()
	select {
	case e, ok := <-epochs:
		if !ok {
			t.Fatal("the stream ended")
		}
		return e
	case <-time.After(10 * time.Second):
		t.Fatal("no event on the stream")
	}
	panic("unreachable")
}

// TestOneShotHistoricPostLeavesStreamsRunning pins the POST /query contract
// for a query the daemon cannot stream: a non-grouped WITH HISTORY query
// plans as a one-shot cursor, so it is refused with 400, its admission
// slot is released, and the primary query's SSE stream keeps delivering
// consecutive epochs.
func TestOneShotHistoricPostLeavesStreamsRunning(t *testing.T) {
	wl := newTestWorkload(t)
	mux := http.NewServeMux()
	mux.HandleFunc("/query", wl.handleQuery)
	mux.HandleFunc("/watch", wl.handleWatch)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer wl.stop() // ends the streams so srv.Close does not wait on them

	post := func(sql string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(sql))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	epochs := watchEpochs(t, srv.URL, "0")
	for want := 0; want < 2; want++ {
		if _, ok := wl.step(); !ok {
			t.Fatal("primary query did not step")
		}
		if got := nextEpoch(t, epochs); got != want {
			t.Fatalf("stream delivered epoch %d, want %d", got, want)
		}
	}

	if status := post("SELECT TOP 1 timeinstant, AVG(sound) FROM sensors WITH HISTORY 16"); status != http.StatusBadRequest {
		t.Fatalf("one-shot historic POST answered %d, want 400", status)
	}
	if admitted, _ := wl.sys.AdmissionLoad(); admitted != 1 {
		t.Fatalf("%d queries admitted after the refused POST, want 1 (the primary)", admitted)
	}
	// The cap is two: a leaked slot would turn this into a 429.
	if status := post("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid"); status != http.StatusOK {
		t.Fatalf("continuous POST after the refused one answered %d, want 200", status)
	}

	for want := 2; want < 5; want++ {
		if _, ok := wl.step(); !ok {
			t.Fatal("primary query stopped stepping after the refused POST")
		}
		if got := nextEpoch(t, epochs); got != want {
			t.Fatalf("stream delivered epoch %d, want %d", got, want)
		}
	}
}

// TestStepFailureEndsOnlyThatStream pins the epoch loop's isolation: a
// query whose Step fails (here: its cursor closed under the loop) has its
// own stream ended, while the other queries keep stepping and publishing.
func TestStepFailureEndsOnlyThatStream(t *testing.T) {
	wl := newTestWorkload(t)
	if _, err := wl.add("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid", ""); err != nil {
		t.Fatal(err)
	}
	cursors := wl.snapshot()
	primary, doomed := wl.hub.Watch(0), wl.hub.Watch(1)

	cursors[1].Close()
	for e := 0; e < 3; e++ {
		if res, ok := wl.step(); !ok || int(res.Epoch) != e {
			t.Fatalf("step %d: primary result %+v ok=%v", e, res, ok)
		}
		if res, ok := primary.Next(); !ok || int(res.Epoch) != e {
			t.Fatalf("step %d: primary stream delivered %+v ok=%v", e, res, ok)
		}
	}
	if res, ok := doomed.Next(); ok {
		t.Fatalf("the failed query's stream delivered %+v, want it ended", res)
	}
}

// TestStatsNeverHoldsStateLockAcrossShardRPC pins that /stats cannot stall
// on a shard: on a -connect coordinator every shard reply carries the
// shard's counters and storage block, so /stats reads what the client holds
// and makes no wire call. With the shard process gone, /stats and /ranking
// (which takes the same state lock as the epoch loop) both answer at once,
// and the shard sees no call.
func TestStatsNeverHoldsStateLockAcrossShardRPC(t *testing.T) {
	scen := kspot.DemoScenario()
	shard, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go shard.Serve(ln)
	sys, err := kspot.OpenFederated(scen, []string{ln.Addr().String()})
	if err != nil {
		shard.Close()
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	wl := newWorkload(sys, scen.Placement())
	shard.Close()

	get := func(h http.HandlerFunc, path string) (int, time.Duration) {
		rec := httptest.NewRecorder()
		start := time.Now()
		h(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, time.Since(start)
	}
	calls := sys.WireMetrics()[0].Calls
	if code, took := get(wl.handleStats, "/stats"); code != http.StatusOK || took > 100*time.Millisecond {
		t.Errorf("/stats answered %d in %v with the shard gone, want 200 within 100ms", code, took)
	}
	if code, took := get(wl.handleRanking, "/ranking"); code != http.StatusOK || took > 100*time.Millisecond {
		t.Errorf("/ranking answered %d in %v, want 200 within 100ms", code, took)
	}
	if made := sys.WireMetrics()[0].Calls - calls; made != 0 {
		t.Fatalf("/stats made %d wire calls, want none", made)
	}
}
