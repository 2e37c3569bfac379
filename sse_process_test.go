package kspot

// Process-level conformance for the streaming results tier: a real kspotd
// process serving a multi-tenant workload from -queries-file, with a
// fan-out of SSE subscribers on one query. Every subscriber must observe
// the identical per-epoch sequence — the hub replay contract — the
// -epochs budget must end every stream cleanly (EOF, not a hang), and the
// fan-out must never touch the network layer: a 50-subscriber run ends
// with the same radio counters as a single-subscriber run.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const sseEpochs = 4

// sseQueriesFile is the -queries-file workload: eight queries, several of
// which share a sensing signature with each other or the daemon's primary
// query, so the process serves the whole multi-tenant path end to end.
const sseQueriesFile = `# kspotd SSE conformance workload
SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid
select top 4 roomid, avg(sound) from sensors group by roomid
SELECT TOP 1 roomid, MAX(temp) FROM sensors GROUP BY roomid
SELECT TOP 3 roomid, MAX(temp) FROM sensors GROUP BY roomid
SELECT TOP 2 roomid, AVG(light) FROM sensors GROUP BY roomid
SELECT TOP 2 roomid, MIN(temp) FROM sensors GROUP BY roomid
SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min
SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4
`

// readSSE consumes one /watch stream to EOF and returns the data payloads
// in arrival order.
func readSSE(addr string, query int) ([]string, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/watch?query=%d", addr, query))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("watch status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("watch content-type %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			events = append(events, strings.TrimPrefix(line, "data: "))
		}
	}
	return events, sc.Err()
}

// sseRadioStats are the deployment-level counters /stats reports once the
// epoch budget is spent — what the radio did, regardless of subscribers.
type sseRadioStats struct {
	Epoch    int   `json:"epoch"`
	Messages int   `json:"messages"`
	TxBytes  int64 `json:"tx_bytes"`
	Drops    int   `json:"drops"`
}

// runKspotdSSE spawns one kspotd on the workload, attaches subscribers SSE
// readers to the watched query, and returns every subscriber's event
// sequence plus the final radio counters.
func runKspotdSSE(t *testing.T, bin, queriesPath string, watched, subscribers int) ([][]string, sseRadioStats) {
	t.Helper()
	addr, _ := startKspotd(t, bin, "kspotd-http ",
		"-addr", "127.0.0.1:0",
		"-queries-file", queriesPath,
		"-interval", "25ms",
		"-epochs", fmt.Sprint(sseEpochs),
		"-max-queries", "32",
	)
	streams := make([][]string, subscribers)
	errs := make([]error, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger a third of the fan-out to land mid- and post-run:
			// the hub replays its cache on subscribe, so join timing must
			// not change what a subscriber sees.
			time.Sleep(time.Duration(i%3) * 40 * time.Millisecond)
			streams[i], errs[i] = readSSE(addr, watched)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
	}

	// Streams EOF only after the epoch budget is spent, so /stats now
	// reports the deployment's final radio totals.
	resp, err := http.Get(fmt.Sprintf("http://%s/stats", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats sseRadioStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return streams, stats
}

// TestProcessSSEFanOut spawns a real kspotd with an 8-query -queries-file
// and a 4-epoch budget, attaches 50 SSE subscribers to one query, and
// pins: every subscriber sees the same 4-epoch sequence, every stream
// ends cleanly when the budget is spent, a post-run subscriber replays
// the identical cached sequence, and the radio counters equal those of a
// single-subscriber run — the fan-out costs the network nothing.
func TestProcessSSEFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kspotd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/kspotd").CombinedOutput(); err != nil {
		t.Fatalf("building kspotd: %v\n%s", err, out)
	}
	queriesPath := filepath.Join(dir, "queries.sql")
	if err := os.WriteFile(queriesPath, []byte(sseQueriesFile), 0o644); err != nil {
		t.Fatal(err)
	}

	// Query 0 is the daemon's primary; the file's queries are 1..8. Watch
	// one of the shared-signature file queries with the full fan-out.
	const watched = 2
	streams, stats := runKspotdSSE(t, bin, queriesPath, watched, 50)

	want := streams[0]
	if len(want) != sseEpochs {
		t.Fatalf("subscriber 0 saw %d events, want %d: %v", len(want), sseEpochs, want)
	}
	for e, raw := range want {
		var res struct {
			Epoch   int  `json:"epoch"`
			Correct bool `json:"correct"`
			Answers []struct {
				Group int
				Score float64
			} `json:"answers"`
		}
		if err := json.Unmarshal([]byte(raw), &res); err != nil {
			t.Fatalf("event %d is not JSON: %v\n%s", e, err, raw)
		}
		if res.Epoch != e {
			t.Fatalf("event %d carries epoch %d", e, res.Epoch)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("event %d has no answers: %s", e, raw)
		}
	}
	for i := 1; i < len(streams); i++ {
		if len(streams[i]) != len(want) {
			t.Fatalf("subscriber %d saw %d events, subscriber 0 saw %d", i, len(streams[i]), len(want))
		}
		for e := range want {
			if streams[i][e] != want[e] {
				t.Fatalf("subscriber %d diverged at event %d:\n%s\nvs\n%s", i, e, streams[i][e], want[e])
			}
		}
	}
	if stats.Epoch != sseEpochs-1 {
		t.Fatalf("final stats at epoch %d, want %d", stats.Epoch, sseEpochs-1)
	}

	// The single-subscriber control run: same binary, same workload. The
	// demo deployment is lossless and the epoch budget fixed, so the
	// stream and the radio totals must both reproduce — 49 extra
	// subscribers change nothing below the serving tier.
	soloStreams, soloStats := runKspotdSSE(t, bin, queriesPath, watched, 1)
	solo := soloStreams[0]
	if len(solo) != len(want) {
		t.Fatalf("single-subscriber run saw %d events, fan-out run %d", len(solo), len(want))
	}
	for e := range want {
		if solo[e] != want[e] {
			t.Fatalf("single-subscriber run diverged at event %d:\n%s\nvs\n%s", e, solo[e], want[e])
		}
	}
	if stats != soloStats {
		t.Fatalf("radio counters depend on subscriber count:\n50 subs: %+v\n 1 sub:  %+v", stats, soloStats)
	}
}
