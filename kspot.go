// Package kspot is a Go reproduction of "KSpot: Effectively Monitoring the
// K Most Important Events in a Wireless Sensor Network" (Andreou,
// Zeinalipour-Yazti, Vassiliadou, Chrysanthis, Samaras — ICDE 2009).
//
// KSpot answers Top-K queries over a wireless sensor network in-network:
// instead of shipping every tuple to the base station, nodes prune answers
// that provably cannot rank among the K best. Snapshot queries
// (SELECT TOP K ... GROUP BY ...) run on the MINT materialized-view
// algorithm; historic queries (... WITH HISTORY w) on the TJA threshold
// join; plain queries on TAG-style acquisition. The hardware substrate —
// MICA2 motes, the TinyOS link layer, the MTS310 sensing board — is
// simulated (see DESIGN.md for the substitution table).
//
// Quick start:
//
//	sys, err := kspot.Open(kspot.DemoScenario())
//	cur, err := sys.Post("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid")
//	for i := 0; i < 10; i++ {
//	    res, err := cur.Step()        // one epoch
//	    fmt.Println(res.Answers)      // the K highest-ranked clusters
//	}
//	fmt.Println(sys.SystemPanel())    // savings, energy, traffic
//
// A scenario carrying a "shards" block opens as a federated deployment:
// the sensor field is partitioned into shard networks (one base station
// and routing tree each) and shard-local top-k rankings merge at a
// coordinator tier with answers provably identical to one flat network —
// snapshot queries via the two-phase snapshot merge, historic WITH
// HISTORY queries via a per-execution threshold round over the shards'
// partial sums (see internal/topk/fed and DESIGN.md's federation
// section).
package kspot

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/faults"
	"kspot/internal/gui"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/shard"
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/topk/registry"
	"kspot/internal/wire"
)

// Re-exported identifiers, so that library users need only this package.
type (
	// Scenario describes a deployment (see internal/config for the JSON
	// schema the Configuration Panel writes).
	Scenario = config.Scenario
	// Cluster names a physical region within a scenario.
	Cluster = config.Cluster
	// Shard assigns clusters to one federated shard network (the
	// scenario's "shards" block); see internal/config and internal/topk/fed.
	Shard = config.Shard
	// FederationTraffic is the coordinator tier's traffic snapshot.
	FederationTraffic = fed.Snapshot
	// Answer is one ranked result row.
	Answer = model.Answer
	// GroupID identifies a cluster / room / time instant.
	GroupID = model.GroupID
	// NodeID identifies a sensor node.
	NodeID = model.NodeID
	// Epoch numbers acquisition rounds.
	Epoch = model.Epoch

	// FaultConfig declares an unreliable-world environment: seeded
	// deterministic link loss, frame duplication/delay and node churn
	// (see internal/faults for the determinism contract).
	FaultConfig = faults.Config
	// AdmissionConfig bounds how many concurrent queries the System
	// accepts, globally and per tenant (see WithAdmission).
	AdmissionConfig = engine.AdmissionConfig
	// AdmissionError is the typed rejection a Post receives when an
	// admission limit is hit; test with errors.As.
	AdmissionError = engine.AdmissionError
	// LagError is the Step error of a cursor left more than 200 epochs
	// behind the deployment's clock; test with errors.As.
	LagError = engine.LagError
	// ChurnEvent schedules one node's death or revival.
	ChurnEvent = faults.ChurnEvent
)

// Algorithm selects the snapshot operator for a query. The default,
// AlgoAuto, follows the paper's router (MINT for TOP-K, TAG otherwise);
// the rest exist for the System Panel's comparisons.
type Algorithm string

const (
	AlgoAuto    Algorithm = ""
	AlgoMINT    Algorithm = "mint"
	AlgoTAG     Algorithm = "tag"
	AlgoNaive   Algorithm = "naive"
	AlgoCentral Algorithm = "central"
	// AlgoFILA is the filter-based monitor (Wu et al., ICDE'06) the paper
	// cites; it applies to per-node top-k snapshot queries and trades
	// stale member scores for near-zero steady-state traffic.
	AlgoFILA Algorithm = "fila"
	// AlgoTJA and AlgoTPUT apply to historic queries.
	AlgoTJA  Algorithm = "tja"
	AlgoTPUT Algorithm = "tput"
)

// System is an opened deployment: the KSpot server attached to a sensor
// field. A deployment is a *set* of shards — one for a flat scenario, N for
// a scenario carrying a shards block — merged at a coordinator tier
// (internal/topk/fed) whose answers are provably identical to running one
// flat network. Whatever hosts a shard — this process (Open) or another one
// behind a socket (OpenFederated) — the System drives it through the one
// shard contract, shardHandle: attach, detach, epoch rounds, historic
// executions, stats and state all cross it, and every continuous cursor is
// a seat on the System's one engine.Scheduler, which runs one epoch round
// per shard per epoch and serves every cursor from it. A local shard is one
// simulated network, safe for any number of queries at once; WithParallel
// is its only concurrency setting (see DESIGN.md). The fault environment is
// the scenario's: each shard arms it when it is assembled.
type System struct {
	scenario *config.Scenario
	schema   query.Schema
	fedStats *fed.Stats

	// local holds a local System's shard bodies; empty on a remote
	// deployment, whose shards live in other processes.
	local []*shard.Shard

	// mu guards Close. sched is the one lock-step scheduler every continuous
	// cursor holds a seat on, over the local shard bodies (Open) or the
	// remote shard processes (OpenFederated). shards are the handles it
	// drives, in shard order; a live re-sharding swaps them wholesale under
	// groupMu, and readers outside it copy the slice (System.handles).
	mu     sync.Mutex
	closed bool
	sched  *engine.Scheduler
	shards []shardHandle

	// qidSeq allocates the ids acquisition groups run under, unique
	// within this System (and so within its wire sessions).
	qidSeq  atomic.Uint32
	wireCfg openConfig // the Open options, reused when Reshard dials new shards

	// Multi-tenant serving state. admission, when non-nil, gates every
	// Post (WithAdmission). groupMu serializes shared-acquisition group
	// bookkeeping across posts, cursor closes and re-sharding: groups
	// records each group's current attachment, keyed by acquisition key.
	admission *engine.Admission
	groupMu   sync.Mutex
	groups    map[string]*groupState

	// frameMu guards StepFrame's seat and outcome buffers, reused across
	// frames; a frame holds them only between two short critical sections.
	frameMu    sync.Mutex
	frameSeats []*engine.ScheduledQuery
	frameOuts  []engine.Outcome
}

// shardHandle is the shard contract: everything the System asks of one
// shard, whatever hosts it. *shard.Shard answers it in process and
// *wire.Client over a socket, one message exchange per call (DESIGN.md
// tabulates the pairs; TestShardContractConformance drives both).
type shardHandle interface {
	// EpochRound senses the epoch once and runs every listed attached query.
	engine.RemoteShard
	// Attach plans sql on the shard and attaches its snapshot operator under
	// id; Detach releases it (an id that is not attached is a no-op).
	Attach(id uint32, algo, sql string) error
	Detach(id uint32) error
	// HistoricTopK and FetchSums are the two phases of a historic
	// execution (fed.HistoricHost); the shard keeps nothing between them.
	fed.HistoricHost
	// Stats reads the traffic and energy counters, StorageStats the durable
	// tier's block (zero without one). Over the wire neither makes a call:
	// both read what the shard's newest reply carried, and both fail while
	// the handle's last call ended unreachable.
	Stats() (stats.RunStats, error)
	StorageStats() (storage.StoreStats, error)
	// Snapshot serializes the durable tier with the energy ledger (a
	// storage snapshot image); Restore applies such an image.
	Snapshot() ([]byte, error)
	Restore(img []byte) error
	// Close releases what the handle holds: the substrate and the durable
	// tier in process, the connection over the wire.
	Close() error
}

var (
	_ shardHandle = (*shard.Shard)(nil)
	_ shardHandle = (*wire.Client)(nil)
)

// handles snapshots the System's shard handles.
func (s *System) handles() []shardHandle {
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	return append([]shardHandle(nil), s.shards...)
}

// groupState tracks one shared-acquisition group's attachment: the query
// id every shard runs it under, the ranking depth it was planned at, and
// the algorithm and plan it was attached with — what a live re-sharding
// migration replays onto the target shards (each shard re-derives the
// operator from the SQL, exactly like the original attach).
type groupState struct {
	id   uint32
	cap  int
	algo Algorithm
	plan *query.Plan
}

// OpenOption tunes how a scenario is opened.
type OpenOption func(*openConfig)

type openConfig struct {
	parallel  int
	admission *engine.AdmissionConfig
	dataDir   string

	// Remote-deployment knobs (OpenFederated; see federated.go).
	wireCall    time.Duration
	wireRetries int
	wireBackoff time.Duration
}

// WithAdmission arms admission control: every Post first reserves a slot
// against the limits, and a rejection returns *AdmissionError without
// touching the deployment (already-running cursors are undisturbed; the
// slot frees when the cursor is Closed). Zero-valued limits are unlimited.
func WithAdmission(cfg AdmissionConfig) OpenOption {
	return func(c *openConfig) { c.admission = &cfg }
}

// WithDataDir arms the durable historic tier on a local System: each
// shard's committed sense epochs append to one log file,
// <dir>/<shard-name>/shard.log (one record and one write per epoch),
// recoverable by a later Open on the same directory. Without it a local
// shard has no durable tier: the storage block is zero and Snapshot fails.
// Answers are byte-identical either way. Remote shard processes own their
// durability (kspotd -serve-shard: in memory without -data-dir); this
// option applies to Open only.
func WithDataDir(dir string) OpenOption {
	return func(c *openConfig) { c.dataDir = dir }
}

// WithParallel is a local System's one concurrency setting, per shard. 0
// and 1 run the exact sequential reference: one goroutine per epoch round,
// the sequential sweep walk. N > 1 acquires up to N query groups of an
// epoch at once, presamples the next epoch in the background, and computes
// each routing-tree level of a sweep with up to N workers. A single
// query's answers, messages, frames, bytes and energy ledger are
// byte-identical for every value; several groups charge a node's ledger in
// an order that depends on the interleaving. Defaults to sequential;
// cmd/kspot-sim and cmd/kspotd default their -parallel flag to the
// machine's CPU count.
func WithParallel(workers int) OpenOption {
	return func(c *openConfig) { c.parallel = workers }
}

// Open builds a System from a scenario. A scenario carrying a shards
// block opens as a federated deployment (one shard body per shard); one
// declaring a fault environment (its faults block, the only fault input)
// opens with it armed on every shard's network (per-shard seeds, see
// config.Scenario.ShardFaults).
func Open(s *Scenario, opts ...OpenOption) (*System, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sys := &System{
		scenario: s,
		schema:   query.DefaultSchema(),
		fedStats: &fed.Stats{},
		groups:   make(map[string]*groupState),
	}
	if cfg.admission != nil {
		sys.admission = engine.NewAdmission(*cfg.admission)
	}
	for i := 0; i < max(len(s.Shards), 1); i++ {
		b, err := openShard(s, i, cfg)
		if err != nil {
			for _, prev := range sys.local {
				prev.Close()
			}
			return nil, err
		}
		sys.local = append(sys.local, b)
		sys.shards = append(sys.shards, b)
	}
	deps := make([]*engine.Deployment, len(sys.local))
	for i, b := range sys.local {
		deps[i] = b.Deployment()
	}
	sys.sched = engine.NewScheduler(deps...)
	return sys, nil
}

// openShard assembles shard i in process, on its durable tier when
// WithDataDir armed one.
func openShard(s *Scenario, i int, cfg openConfig) (*shard.Shard, error) {
	var store *storage.Store
	if cfg.dataDir != "" {
		var err error
		if store, err = storage.OpenStore(filepath.Join(cfg.dataDir, s.ShardName(i)), storage.DefaultStoreWindow); err != nil {
			return nil, err
		}
	}
	b, err := shard.New(shard.Config{Scenario: s, Shard: i, Parallel: cfg.parallel, Store: store})
	if err != nil && store != nil {
		store.Close()
	}
	return b, err
}

// OpenFile loads a scenario JSON file and opens it.
func OpenFile(path string, opts ...OpenOption) (*System, error) {
	s, err := config.Load(path)
	if err != nil {
		return nil, err
	}
	return Open(s, opts...)
}

// DemoScenario returns the paper's Figure-3 conference deployment: 14
// sensors in 6 clusters (Auditorium, Conference Rooms, Coffee Stations,
// Lobby).
func DemoScenario() *Scenario { return config.Figure3Scenario() }

// Figure1Scenario returns the paper's 9-sensor, 4-room worked example with
// its exact sound levels.
func Figure1Scenario() *Scenario { return config.Figure1Scenario() }

// ScaleScenario deterministically generates the scale-<n> benchmark
// deployment (n sensors, rooms of 20); scenarios/scale-*.json are its
// committed outputs. n must be a positive multiple of 20.
func ScaleScenario(n int) (*Scenario, error) { return config.ScaleScenario(n) }

// ScaleScenarioShards generates the scale-<n> deployment pre-split into
// the given number of federated shards, verifying every shard deploys.
// Sharded scale scenarios are generated, never committed (`kspot-sim
// -gen-scale <n> -shards <k>` emits one when a file is needed).
func ScaleScenarioShards(n, shards int) (*Scenario, error) {
	return config.ScaleScenarioShards(n, shards)
}

// Scenario returns the opened scenario.
func (s *System) Scenario() *Scenario { return s.scenario }

// Network exposes the underlying simulation (topology, counters, ledger)
// for advanced callers; on a federated deployment it returns the first
// shard's network — use Networks for all of them. Nil on a remote
// deployment, whose networks live in the shard processes (use ShardStats
// for their counters).
//
// A cancelled StepContext may leave its epoch charging the network after
// it returns, so the exported state fields (Ledger, Counter, Budgets) are
// read through the network's Locked or Snap, or through CaptureStats —
// never directly while any step or run may be in flight.
func (s *System) Network() *sim.Network {
	if len(s.local) == 0 {
		return nil
	}
	return s.local[0].Network()
}

// Networks returns every local shard's simulated network, in shard order
// (a single entry for a flat deployment). Their exported state is read as
// Network's is: through Locked, Snap or CaptureStats.
func (s *System) Networks() []*sim.Network {
	nets := make([]*sim.Network, len(s.local))
	for i, b := range s.local {
		nets[i] = b.Network()
	}
	return nets
}

// Shards reports the number of shard deployments (1 for a flat scenario).
func (s *System) Shards() int { return len(s.handles()) }

// FederationStats reports the coordinator tier's accumulated traffic —
// phase-1 reports, phase-2 targeted fetches and backhaul bytes. All zero
// on a flat deployment.
func (s *System) FederationStats() FederationTraffic { return s.fedStats.Snapshot() }

// ResetAccounting clears traffic and energy counters on every local shard,
// e.g. between a warm-up and a measured window.
func (s *System) ResetAccounting() {
	for _, b := range s.local {
		b.Network().Reset()
	}
}

// PostOption tunes how a query is posted.
type PostOption func(*postConfig)

type postConfig struct {
	tenant string
}

// WithTenant attributes the posted query to a tenant for admission
// accounting (see WithAdmission). Unattributed posts share the empty
// tenant.
func WithTenant(name string) PostOption {
	return func(c *postConfig) { c.tenant = name }
}

// WithLive is accepted and ignored: every System is safe for concurrent
// posts and steps, and WithParallel is its only concurrency setting. Named
// by frozen benchmark/; delete with the next benchmark PR.
func WithLive() PostOption { return func(*postConfig) {} }

// WithLiveWindow is accepted and ignored: no shard keeps per-node history
// (historic and WITH HISTORY queries materialize from the trace source).
// Named by frozen benchmark/; delete with the next benchmark PR.
func WithLiveWindow(int) PostOption { return func(*postConfig) {} }

// Post parses, plans and prepares a query. Snapshot (continuous) queries
// return a cursor advanced with Step; historic queries are executed by Run.
func (s *System) Post(sql string, opts ...PostOption) (*Cursor, error) {
	return s.PostWith(sql, AlgoAuto, opts...)
}

// PostWith posts a query pinned to a specific algorithm (the System Panel
// uses this to compare MINT against the baselines on identical workloads).
func (s *System) PostWith(sql string, algo Algorithm, opts ...PostOption) (*Cursor, error) {
	var cfg postConfig
	for _, o := range opts {
		o(&cfg)
	}
	plan, err := query.PlanText(sql, s.schema)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("kspot: system is closed")
	}
	// Admission runs after parsing (a malformed query is a syntax error,
	// never a consumed slot) and before any deployment work: a rejected
	// post touches nothing, so running cursors keep stepping undisturbed.
	if s.admission != nil {
		if err := s.admission.Admit(cfg.tenant); err != nil {
			return nil, err
		}
	}
	cur := &Cursor{sys: s, plan: plan, algo: algo, sched: s.sched, tenant: cfg.tenant, admitted: s.admission != nil}
	if err := cur.prepare(); err != nil {
		if cur.admitted {
			// The slot reserved above frees: a post that never produced a
			// cursor must not count against the tenant forever.
			s.admission.Release(cfg.tenant)
		}
		return nil, err
	}
	return cur, nil
}

// AdmissionLoad reports the admission controller's live-query count and
// per-tenant breakdown (zero and empty without WithAdmission).
func (s *System) AdmissionLoad() (total int, perTenant map[string]int) {
	if s.admission == nil {
		return 0, map[string]int{}
	}
	return s.admission.Load()
}

// Close shuts the deployment down and every shard handle closes — a local
// shard's in-flight presample drains and its durable tier (WithDataDir)
// flushes and closes, a remote shard's connection drops (a round in flight on it is
// interrupted and its cursor's Step returns an error). Later Steps and Runs
// return the scheduler's closed error and later posts fail. Safe to call
// multiple times and concurrently with in-flight Steps and Runs.
func (s *System) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	shards := s.handles()
	if s.Remote() {
		// Drop the connections first: a round in flight on one fails fast
		// instead of holding the epoch lock Close takes next.
		for _, h := range shards {
			h.Close()
		}
		s.sched.Close()
		return
	}
	s.sched.Close() // waits out an in-flight epoch or historic run
	for _, h := range shards {
		h.Close()
	}
}

// StorageStats snapshots every shard's durable-tier storage block
// (log files, bytes on disk, last checkpointed epoch, and the failure
// that stopped a shard persisting, if any), in shard order — over the wire
// from each shard process on a remote deployment. A shard without a
// durable tier (a local System without WithDataDir) reports the zero block.
func (s *System) StorageStats() ([]storage.StoreStats, error) {
	shards := s.handles()
	out := make([]storage.StoreStats, len(shards))
	for i, h := range shards {
		var err error
		if out[i], err = h.StorageStats(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SystemPanel renders the current traffic/energy statistics, optionally
// against a baseline captured earlier with CaptureStats: the shards' rows
// merged, so the epoch count is the one the shards counted. A federated
// deployment's panel leads with the per-shard traffic table and the
// coordinator tier's backhaul, then the aggregate panel — every radio
// message is accounted to the shard that transmitted it.
func (s *System) SystemPanel(baseline *RunStats) string {
	var base *stats.RunStats
	if baseline != nil {
		b := stats.RunStats(*baseline)
		base = &b
	}
	rows, err := s.shardStatRows()
	if err != nil {
		return fmt.Sprintf("system panel unavailable: %v\n", err)
	}
	total := stats.Merge("total", rows...)
	if len(s.local) == 1 {
		return gui.SystemPanel(total, base) + s.storageLines()
	}
	rows = append(rows, total)
	f := s.fedStats.Snapshot()
	panel := stats.Table("per-shard traffic", rows) +
		fmt.Sprintf("coordinator tier: %d phase-1 reports, %d targeted fetches (%d answers), %d backhaul bytes\n",
			f.Phase1Msgs, f.Phase2Reqs, f.Fetched, f.TxBytes)
	for _, m := range s.WireMetrics() {
		panel += fmt.Sprintf("  wire %s: %d calls (%d rounds, %d retried), p50 %dµs p99 %dµs, %dB out / %dB in\n",
			m.Shard, m.Calls, m.Rounds, m.Retries, m.P50Micros, m.P99Micros, m.BytesOut, m.BytesIn)
	}
	panel += s.storageLines()
	return panel + gui.SystemPanel(total, base)
}

// storageLines renders the panel's durable-tier block: one line per shard
// that has checkpointed anything (empty when no durable tier is armed).
func (s *System) storageLines() string {
	blocks, err := s.StorageStats()
	if err != nil {
		return fmt.Sprintf("  storage unavailable: %v\n", err)
	}
	var out string
	for i, b := range blocks {
		if b.Nodes == 0 && !b.HasEpoch {
			continue
		}
		line := fmt.Sprintf("  storage %s: %d nodes, %d log files, %dB on disk", s.scenario.ShardName(i), b.Nodes, b.Segments, b.Bytes)
		if b.HasEpoch {
			line += fmt.Sprintf(", last checkpoint epoch %d", b.LastEpoch)
		}
		if b.Err != "" {
			line += ", NOT PERSISTING: " + b.Err
		}
		out += line + "\n"
	}
	return out
}

// RunStats is a captured statistics snapshot (see CaptureStats).
type RunStats stats.RunStats

// CaptureStats snapshots the deployment's counters under a label, summed
// across every shard, with epochs as the row's epoch count. On a remote
// deployment a shard's row is the one its newest reply carried (no wire
// call), and a shard whose last call ended unreachable leaves its counters
// out of the sum.
func (s *System) CaptureStats(label string, epochs int) RunStats {
	var rows []stats.RunStats
	for _, h := range s.handles() {
		if row, err := h.Stats(); err == nil {
			rows = append(rows, row)
		}
	}
	merged := stats.Merge(label, rows...)
	merged.Epochs = epochs
	return RunStats(merged)
}

// DisplayPanel renders the deployment map with KSpot bullets beside the
// ranked clusters.
func (s *System) DisplayPanel(answers []Answer, w, h int) string {
	return gui.DisplayPanel(s.scenario.Placement(), answers, w, h)
}

// RankingStrip renders a one-line live ranking.
func (s *System) RankingStrip(answers []Answer) string {
	return gui.RankingStrip(s.scenario.Placement(), answers)
}

// snapshotOperator instantiates the snapshot operator for an algorithm.
// The name-to-operator mapping lives in internal/topk/registry so remote
// shard servers resolve a coordinator's algorithm name to the identical
// operator.
func snapshotOperator(algo Algorithm) (topk.SnapshotOperator, error) {
	op, err := registry.Snapshot(string(algo))
	if err != nil {
		return nil, fmt.Errorf("kspot: %q is not a snapshot algorithm", algo)
	}
	return op, nil
}

// historicOperator instantiates the historic operator for an algorithm.
func historicOperator(algo Algorithm) (topk.HistoricOperator, error) {
	op, err := registry.Historic(string(algo))
	if err != nil {
		return nil, fmt.Errorf("kspot: %q is not a historic algorithm", algo)
	}
	return op, nil
}
