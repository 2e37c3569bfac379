// Command kspotd serves the KSpot GUI over HTTP: the Display Panel with
// live KSpot bullets, the ranking strip and the System Panel, refreshed as
// the deployment advances epochs — the web-era stand-in for the paper's
// projector at the conference site.
//
// Every posted query shares one sensed epoch (see internal/engine), so
// extra queries cost beacons and views, not extra sensing. -parallel
// (default: the CPU count) is the one concurrency setting per shard: above
// 1 the queries' acquisition groups sweep concurrently, the next epoch is
// presampled in the background, and each sweep computes a wide tree level
// on up to that many workers.
//
// Usage:
//
//	kspotd -addr :8080 -interval 1s
//	kspotd -scenario demo.json -queries-file workload.sql
//
// The primary query (primarySQL, a Top-3 of AVG(sound) per room) is always
// posted first; its answers drive the panels.
//
// A federated deployment can run as separate OS processes: each shard
// hosts its network in its own kspotd behind the framed TCP protocol of
// internal/wire, and one coordinator kspotd dials them (answers stay
// byte-identical to the in-process run; see DESIGN.md):
//
//	kspotd -scenario field.json -shards 4 -serve-shard 0 -wire-addr 127.0.0.1:7701
//	... (shards 1..3 likewise) ...
//	kspotd -scenario field.json -shards 4 -connect 127.0.0.1:7701,...,127.0.0.1:7704
//
// A shard server prints "kspotd-wire <addr>" on stdout once it listens
// (so spawners can pass -wire-addr 127.0.0.1:0 and parse the port).
// Coordinator and shards must run the same wire protocol version — there
// is one protocol and no negotiation; a skewed peer fails the handshake
// with an error naming both versions.
//
// The daemon is multi-tenant: -queries-file loads a workload at boot
// (validated in full before any query arms), POST /query admits new
// queries at runtime against -max-queries / -tenant-quota limits, and
// GET /watch?query=N streams a query's per-epoch results over SSE — any
// number of subscribers ride one cursor, and any number of same-signature
// queries ride one in-network acquisition.
//
// Endpoints:
//
//	/         HTML dashboard (auto-refreshing)
//	/panel    text display panel
//	/ranking  one-line ranking strip
//	/stats    JSON traffic statistics
//	/query    POST SQL (body or q= form value; X-KSpot-Tenant attributes it)
//	/watch    GET ?query=N: per-epoch results as Server-Sent Events
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kspot"
	"kspot/internal/config"
	"kspot/internal/gui"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/serve"
	"kspot/internal/topo"
	"kspot/internal/wire"
)

type state struct {
	mu       sync.Mutex
	epoch    model.Epoch
	answers  []model.Answer
	messages int
	txBytes  int
	drops    int
}

// workload is the daemon's mutable query set: the boot-time cursors plus
// anything POST /query admits later. Query i's results stream from slot i
// of the one hub's epoch frames. The step loop snapshots the cursors per
// tick, so posts land between epochs.
type workload struct {
	mu      sync.Mutex
	sys     *kspot.System
	cursors []*kspot.Cursor
	hub     *serve.Hub
	stopped bool

	// st is what the epoch loop last committed, placement the map the
	// panels draw it on. st.mu is held to copy fields in or out and never
	// across a call that can block: the epoch loop takes it every epoch.
	st        state
	placement *topo.Placement

	// failed marks queries whose Step returned an error: their stream has
	// ended and step skips them. frame is the epoch frame step fills and
	// publishes. Both are touched by the epoch loop only.
	failed map[int]bool
	frame  []serve.Result
}

// newWorkload wraps a deployment with an empty query set and its hub.
func newWorkload(sys *kspot.System, placement *topo.Placement) *workload {
	return &workload{sys: sys, placement: placement, hub: serve.NewHub(0)}
}

// add posts a query, returning its index: the slot of its results in the
// hub's frames.
func (w *workload) add(sql, tenant string) (int, error) {
	cur, err := w.sys.Post(sql, kspot.WithTenant(tenant))
	if err != nil {
		return 0, err
	}
	if !cur.Continuous() {
		// A one-shot historic query (WITH HISTORY without GROUP BY) executes
		// with Run; the epoch loop could never step it.
		cur.Close()
		return 0, fmt.Errorf("kspotd: %q is a one-shot historic query; the daemon streams continuous queries only", sql)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		// The epoch loop already ended (-epochs ran out or a step failed):
		// a cursor posted now would never step, so refuse it.
		cur.Close()
		return 0, fmt.Errorf("kspotd: epoch loop has stopped")
	}
	w.cursors = append(w.cursors, cur)
	return len(w.cursors) - 1, nil
}

// snapshot returns the current cursor list (a shared backing array:
// entries are append-only).
func (w *workload) snapshot() []*kspot.Cursor {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cursors
}

// step advances every query one epoch in one System.StepFrame call,
// filling one frame with their results, and publishes it: one Publish per
// epoch, however many queries. It returns the primary query's result (ok
// false once the primary has failed). A query whose step fails loses its
// own stream — hub.End, cursor closed, a zero entry in its slot and
// skipped from then on — and the other tenants' queries keep stepping.
func (w *workload) step() (primary kspot.StepResult, ok bool) {
	cursors := w.snapshot()
	w.frame = slices.Grow(w.frame[:0], len(cursors))[:len(cursors)]
	clear(w.frame)
	w.sys.StepFrame(cursors, func(i int, res kspot.StepResult, err error) {
		if w.failed[i] {
			return
		}
		if err != nil {
			log.Printf("kspotd: query %d: step: %v; its stream ends", i, err)
			if w.failed == nil {
				w.failed = make(map[int]bool)
			}
			w.failed[i] = true
			w.hub.End(i)
			cursors[i].Close()
			return
		}
		w.frame[i] = serve.Result{Epoch: res.Epoch, Answers: res.Answers, Correct: res.Correct}
		if i == 0 {
			primary, ok = res, true
		}
	})
	w.hub.Publish(w.frame...)
	// At saturation this goroutine never blocks, so whatever the epoch made
	// runnable — the SSE writers Publish signalled, a handler woken on a
	// lock the loop released — waits in this P's run queue until another
	// thread is woken to steal it, which takes about as long as an epoch
	// does. Yield once per epoch so they run now.
	runtime.Gosched()
	return primary, ok
}

// watch subscribes to query i's stream, if query i exists.
func (w *workload) watch(i int) (*serve.Subscriber, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i < 0 || i >= len(w.cursors) {
		return nil, false
	}
	return w.hub.Watch(i), true
}

// stop ends the streams: the hub closes (subscribers drain and finish) and
// later posts are refused.
func (w *workload) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	w.hub.Close()
}

// handleQuery is POST /query: admit a query at runtime. Bad SQL and
// queries the daemon cannot stream answer 400, an admission limit 429;
// neither disturbs the running queries.
func (wl *workload) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a query (body or q= form value)", http.StatusMethodNotAllowed)
		return
	}
	// Read the body ourselves: r.FormValue would consume it as a
	// form, silently discarding raw SQL posted with curl's default
	// urlencoded content type. A body (or URL query) carrying q= is
	// a form value; anything else is the SQL itself.
	sql := r.URL.Query().Get("q")
	if sql == "" {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sql = strings.TrimSpace(string(body))
		if vals, err := url.ParseQuery(sql); err == nil && vals.Get("q") != "" {
			sql = strings.TrimSpace(vals.Get("q"))
		}
	}
	if sql == "" {
		http.Error(w, "empty query", http.StatusBadRequest)
		return
	}
	idx, err := wl.add(sql, r.Header.Get("X-KSpot-Tenant"))
	if err != nil {
		status := http.StatusBadRequest
		var aerr *kspot.AdmissionError
		if errors.As(err, &aerr) {
			// Admission rejection is load, not a client error: 429 with
			// the typed limit detail, running queries undisturbed.
			status = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]interface{}{"query": idx})
}

// handleWatch is GET /watch?query=N: the query's per-epoch results as
// Server-Sent Events, replayed from the hub's window first.
func (wl *workload) handleWatch(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("query"))
	if err != nil {
		http.Error(w, "watch needs ?query=N", http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub, ok := wl.watch(idx)
	if !ok {
		http.Error(w, fmt.Sprintf("no query %d", idx), http.StatusNotFound)
		return
	}
	defer sub.Close()
	// A dropped client unblocks the Next loop via the subscriber close.
	go func() {
		<-r.Context().Done()
		sub.Close()
	}()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		res, ok := sub.Next()
		if !ok {
			return
		}
		data, err := json.Marshal(res)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return
		}
		flusher.Flush()
	}
}

// handleRanking is GET /ranking: the primary query's one-line live ranking.
func (wl *workload) handleRanking(w http.ResponseWriter, r *http.Request) {
	wl.st.mu.Lock()
	answers := wl.st.answers
	epoch := wl.st.epoch
	wl.st.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "epoch %d: %s\n", epoch, gui.RankingStrip(wl.placement, answers))
}

// handleStats is GET /stats: the epoch loop's counters plus the serving,
// federation, wire and storage blocks. The counters are copied out under
// the state lock and everything else is gathered after its release. None
// of it makes a shard call: on a -connect coordinator the storage block is
// the one the shard's newest reply carried.
func (wl *workload) handleStats(w http.ResponseWriter, r *http.Request) {
	sys := wl.sys
	fed := sys.FederationStats()
	cursors := wl.snapshot()
	admitted, tenants := sys.AdmissionLoad()
	wl.st.mu.Lock()
	epoch, messages, txBytes, drops := wl.st.epoch, wl.st.messages, wl.st.txBytes, wl.st.drops
	wl.st.mu.Unlock()
	out := map[string]interface{}{
		"epoch":    epoch,
		"messages": messages,
		"tx_bytes": txBytes,
		"drops":    drops,
		"queries":  len(cursors),
		// Streaming/admission tier: live SSE subscribers and the
		// admission controller's load (zero without -max-queries /
		// -tenant-quota).
		"subscribers": wl.hub.Subscribers(),
		"admitted":    admitted,
		"tenants":     tenants,
		// Federation tier (all zero on a flat deployment): shard count
		// and the coordinator's merge/backhaul counters.
		"shards":            sys.Shards(),
		"coord_rounds":      fed.Rounds,
		"coord_phase2_reqs": fed.Phase2Reqs,
		"coord_bytes":       fed.TxBytes,
	}
	// Remote deployments add per-shard wire RTT/traffic accounting:
	// calls, epoch rounds, retries, p50/p99 latency and bytes both ways.
	if wm := sys.WireMetrics(); wm != nil {
		out["wire"] = wm
	}
	// Durable-tier storage block, in shard order: log files ("segments"),
	// bytes on disk, last checkpointed epoch, and "error" once a shard
	// stopped persisting (all-zero without -data-dir).
	if ss, err := sys.StorageStats(); err == nil {
		out["storage"] = ss
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// loadQueriesFile reads one query per line, skipping blank lines and
// #-comments, and validates EVERY query against the schema before any is
// armed — a typo on line 7 fails the boot instead of serving a partial
// workload.
func loadQueriesFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var queries []string
	for i, line := range strings.Split(string(data), "\n") {
		sql := strings.TrimSpace(line)
		if sql == "" || strings.HasPrefix(sql, "#") {
			continue
		}
		if _, err := query.PlanText(sql, query.DefaultSchema()); err != nil {
			return nil, fmt.Errorf("%s:%d: %q: %v", path, i+1, sql, err)
		}
		queries = append(queries, sql)
	}
	return queries, nil
}

// primarySQL is the query every daemon posts first; its answers drive the
// panels and the ranking strip.
const primarySQL = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid"

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		scenarioPath = flag.String("scenario", "", "scenario JSON (default: built-in demo)")
		interval     = flag.Duration("interval", time.Second, "epoch duration")
		shards       = flag.Int("shards", 0, "federate the deployment into N shard networks (splits the cluster list)")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "concurrency bound per shard: concurrent query groups, background presampling and sweep workers above 1; 1 = the sequential reference on one goroutine")
		serveShard   = flag.Int("serve-shard", -1, "serve shard N of the scenario over the wire protocol instead of the GUI daemon (see -wire-addr)")
		wireAddr     = flag.String("wire-addr", "127.0.0.1:0", "listen address for -serve-shard (port 0 picks one; the bound address is printed as \"kspotd-wire <addr>\")")
		connect      = flag.String("connect", "", "comma-separated shard wire addresses: run as the federated coordinator over already-running -serve-shard processes")
		queriesFile  = flag.String("queries-file", "", "file with one query per line (# comments); every line is validated before any query is armed")
		epochs       = flag.Int("epochs", 0, "stop stepping after N epochs (0 = run until shutdown); HTTP keeps serving and streams end cleanly")
		maxQueries   = flag.Int("max-queries", 0, "admission: cap on concurrently live queries (0 = unlimited)")
		tenantQuota  = flag.Int("tenant-quota", 0, "admission: per-tenant cap on live queries (0 = unlimited)")
		dataDir      = flag.String("data-dir", "", "durable historic tier: append each shard's committed epochs to one log file (shard.log) under this directory and recover it at start-up; a -serve-shard process also appends its energy ledger there after each epoch round and resumes it on restart, and its coordinator's handshake re-attaches the queries; a restarted flat daemon's clock, like a new coordinator session's, restarts at 0, so the store records no epoch until the clock passes the recovered one, and the storage block reports it; a shard.log written in another log format version (an older build's) is refused at start-up, naming the file and both versions, not misread (empty = no durable tier on a flat daemon, so /stats carries zero storage blocks; a -serve-shard process keeps an in-memory one; answers are identical either way)")
	)
	flag.Parse()

	scen := kspot.DemoScenario()
	if *scenarioPath != "" {
		var err error
		scen, err = config.Load(*scenarioPath)
		if err != nil {
			log.Fatal("kspotd: ", err)
		}
	}
	if *shards > 0 {
		if err := scen.AutoShard(*shards); err != nil {
			log.Fatal("kspotd: ", err)
		}
	}
	if *serveShard >= 0 {
		serveShardProcess(scen, *serveShard, *wireAddr, *parallel, *dataDir)
		return
	}
	placement := scen.Placement()
	var fileQueries []string
	if *queriesFile != "" {
		var err error
		fileQueries, err = loadQueriesFile(*queriesFile)
		if err != nil {
			log.Fatal("kspotd: ", err)
		}
	}
	var sys *kspot.System
	var err error
	remote := *connect != ""
	openOpts := []kspot.OpenOption{}
	if *maxQueries > 0 || *tenantQuota > 0 {
		openOpts = append(openOpts, kspot.WithAdmission(kspot.AdmissionConfig{MaxQueries: *maxQueries, TenantQuota: *tenantQuota}))
	}
	if remote {
		if *dataDir != "" {
			log.Fatal("kspotd: -data-dir applies to shard processes (-serve-shard) or local deployments, not the -connect coordinator")
		}
		sys, err = kspot.OpenFederated(scen, strings.Split(*connect, ","), openOpts...)
	} else {
		if *dataDir != "" {
			openOpts = append(openOpts, kspot.WithDataDir(*dataDir))
		}
		sys, err = kspot.Open(scen, append(openOpts, kspot.WithParallel(*parallel))...)
	}
	if err != nil {
		log.Fatal("kspotd: ", err)
	}
	defer sys.Close()

	wl := newWorkload(sys, placement)
	cur, err := sys.Post(primarySQL)
	if err != nil {
		log.Fatal("kspotd: ", err)
	}
	wl.cursors = append(wl.cursors, cur)
	for _, sql := range fileQueries {
		if _, err := wl.add(sql, ""); err != nil {
			log.Fatalf("kspotd: %q: %v", sql, err)
		}
	}

	st := &wl.st
	stop := make(chan struct{})
	go func() {
		defer wl.stop()
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		for stepped := 0; *epochs <= 0 || stepped < *epochs; stepped++ {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			primaryRes, primaryOK := wl.step()
			// The shared network counters, summed across every shard on a
			// federated deployment, each read under its network's lock. On
			// -connect each shard's row rode the epoch round just completed,
			// so this reads it without a wire call; a shard that answered no
			// round, or ran another call since (an attach, a /stats storage
			// poll), is asked.
			total := sys.CaptureStats("live", 0)
			st.mu.Lock()
			if primaryOK {
				st.epoch = primaryRes.Epoch
				st.answers = primaryRes.Answers
			}
			st.messages = total.Messages
			st.txBytes = total.TxBytes
			st.drops = total.Drops
			st.mu.Unlock()
		}
		log.Printf("kspotd: epoch budget (%d) spent; streams closed, HTTP still serving", *epochs)
	}()
	defer close(stop)

	mux := http.NewServeMux()
	mux.HandleFunc("/panel", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		answers := st.answers
		st.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, gui.DisplayPanel(placement, answers, 72, 18))
	})
	mux.HandleFunc("/ranking", wl.handleRanking)
	mux.HandleFunc("/stats", wl.handleStats)
	mux.HandleFunc("/query", wl.handleQuery)
	mux.HandleFunc("/watch", wl.handleWatch)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		st.mu.Lock()
		answers := st.answers
		epoch := st.epoch
		messages, txBytes := st.messages, st.txBytes
		st.mu.Unlock()
		cursors := wl.snapshot()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<!DOCTYPE html><html><head><meta http-equiv="refresh" content="2">
<title>KSpot — %s</title><style>body{font-family:monospace;background:#111;color:#dfd}
pre{font-size:13px}</style></head><body>
<h2>KSpot — %s</h2>
<p>epoch %d &middot; queries %d &middot; messages %d &middot; tx bytes %d</p>
<pre>%s</pre>
<pre>%s</pre>
</body></html>`,
			html.EscapeString(scen.Name), html.EscapeString(scen.Name), epoch,
			len(cursors), messages, txBytes,
			html.EscapeString(fmt.Sprintf("ranking: %s", gui.RankingStrip(placement, answers))),
			html.EscapeString(gui.DisplayPanel(placement, answers, 72, 18)))
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("kspotd: ", err)
	}
	// Printed like -serve-shard's "kspotd-wire" line: spawners listen on
	// port 0 and parse the bound address.
	fmt.Printf("kspotd-http %s\n", ln.Addr())
	cursors := wl.snapshot()
	log.Printf("kspotd: serving %q on %s (%d queries, primary: TOP 3 AVG(sound) per cluster, epoch %v)",
		scen.Name, ln.Addr(), len(cursors), *interval)
	srv := &http.Server{Handler: mux}
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "kspotd:", err)
		os.Exit(1)
	}
}

// serveShardProcess runs kspotd as one shard of a federated deployment:
// the shard's network lives here, behind internal/wire's framed TCP
// protocol, and a coordinator kspotd (-connect) or kspot.OpenFederated
// drives it. The bound address is printed to stdout as "kspotd-wire
// <addr>" so spawners can listen on port 0 and parse the outcome; SIGINT
// or SIGTERM shuts the server down cleanly.
func serveShardProcess(scen *config.Scenario, shard int, addr string, parallel int, dataDir string) {
	if dataDir != "" {
		// Every shard process on a host can share one -data-dir: each
		// shard's one file, shard.log, lives under its own shard-named
		// subdirectory, and a restarted process finds it by the same
		// deterministic path.
		dataDir = filepath.Join(dataDir, scen.ShardName(shard))
	}
	srv, err := wire.NewServer(wire.ServerConfig{
		Scenario: scen,
		Shard:    shard,
		Parallel: parallel,
		DataDir:  dataDir,
	})
	if err != nil {
		log.Fatal("kspotd: ", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal("kspotd: ", err)
	}
	fmt.Printf("kspotd-wire %s\n", ln.Addr())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		srv.Close()
	}()
	log.Printf("kspotd: shard %d (%s) of %q serving the wire protocol on %s", shard, srv.Name(), scen.Name, ln.Addr())
	if err := srv.Serve(ln); err != nil {
		log.Fatal("kspotd: ", err)
	}
}
