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
	"context"
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
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/topk/registry"
	"kspot/internal/trace"
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
	// ChurnEvent schedules one node's death or revival.
	ChurnEvent = faults.ChurnEvent
	// DistanceLossSpec weights link loss by hop length.
	DistanceLossSpec = faults.DistanceSpec
	// BurstLossSpec is a per-link Gilbert-Elliott loss channel.
	BurstLossSpec = faults.BurstSpec
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

// System is an opened deployment: the network state, its workload and the
// query engine, i.e. the KSpot server attached to a sensor field. A
// deployment is a *set* of shard networks — one for a flat scenario, N
// for a scenario carrying a shards block — merged at a coordinator tier
// (internal/topk/fed) whose answers are provably identical to running one
// flat network. Queries run on one of two substrates of the same engine
// layer (see DESIGN.md): the deterministic simulator (default) or the
// concurrent live deployment (PostWith ... WithLive()), which lets any
// number of queries sweep one network at once. Either way — and when the
// shards are remote processes (OpenFederated) — every continuous cursor
// is a seat on one engine.Scheduler per tier, which runs one epoch round
// per shard per epoch and serves every cursor from it.
type System struct {
	scenario   *config.Scenario
	shardScens []*config.Scenario // per-shard sub-deployments; [0] == scenario when flat
	nets       []*sim.Network     // one simulated network per shard
	source     trace.Source       // built from the flat scenario, shared by every shard
	schema     query.Schema
	fedStats   *fed.Stats

	mu         sync.Mutex
	lives      []*engine.Live
	liveCancel context.CancelFunc
	// liveRuns counts one-shot historic executions in flight on the live
	// substrate. They run outside the scheduler's epoch lock-step, so
	// Close must wait them out separately before stopping the node
	// goroutines — otherwise a federated historic Run could find one
	// shard's Live torn down mid-protocol.
	liveRuns sync.WaitGroup

	// The lock-step tiers. det is the default one — the deterministic
	// shard networks of a local System (rebuilt when a fault environment
	// arms or disarms, which only happens before any cursor attaches), or
	// the remote shard processes of OpenFederated. live is the concurrent
	// deployment WithLive starts over the same networks; nil until then and
	// after Close.
	det, live *tier

	// faultCfg, when non-nil, is the armed fault environment (faultCfgs
	// its per-shard specializations; see shardStack). posted records that
	// at least one cursor has attached, posting counts attachments in
	// flight — arming while either holds would leave those cursors'
	// operators below the injector, churning nothing.
	faultCfg  *faults.Config
	faultCfgs []faults.Config
	posted    bool
	posting   int

	// stores, when WithDataDir armed them, are the per-shard durable
	// tiers: every committed sense epoch folds into shard i's store (and
	// its shard.log) through its tap on the shard's transport stack.
	stores []*storage.Store

	// Remote deployments (OpenFederated): the shard networks live in other
	// processes behind these wire clients, the det tier's shards.
	// nets/source stay empty — there is no local substrate to run on.
	// qidSeq allocates the ids acquisition groups and historic executions
	// are attached under, unique within this System (and so within its wire
	// sessions).
	remotes []*wire.Client
	qidSeq  atomic.Uint32
	wireCfg openConfig // the Open options, reused when Reshard dials new shards

	// Multi-tenant serving state. admission, when non-nil, gates every
	// Post (WithAdmission). groupMu serializes shared-acquisition group
	// bookkeeping across posts, cursor closes and re-sharding: groups
	// records each group's current attachment, keyed by tier-prefixed
	// acquisition key so det and live groups never collide.
	admission *engine.Admission
	groupMu   sync.Mutex
	groups    map[string]*groupState
}

// tier is one lock-step clock of a System: the scheduler every continuous
// cursor of the tier holds a seat on, and its in-process shard deployments
// (nil on a remote deployment, whose shards are wire clients).
type tier struct {
	sched *engine.Scheduler
	deps  []*engine.Deployment
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
	wireFaults  *wire.Faults
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
// recoverable by a later Open on the same directory. Empty (the default) keeps the memory backend — behavior and
// answers are byte-identical either way; the data dir only adds
// durability and the /stats storage block. On a remote deployment the
// shard processes own their durability (kspotd -serve-shard -data-dir);
// this option applies to Open only.
func WithDataDir(dir string) OpenOption {
	return func(c *openConfig) { c.dataDir = dir }
}

// WithParallel bounds the worker count of every shard's level-synchronous
// epoch sweep on the deterministic substrate. 0 and 1 select the exact
// legacy sequential walk; N > 1 computes each routing-tree level with up
// to N workers, with answers, messages, frames, bytes and the energy
// ledger byte-identical for every value. The live substrate runs the same
// level-synchronous sweep under the same bound (there 0 and 1 mean no
// spare workers, not a different walk). Defaults to sequential;
// cmd/kspot-sim and cmd/kspotd default their -parallel flag to the
// machine's CPU count.
func WithParallel(workers int) OpenOption {
	return func(c *openConfig) { c.parallel = workers }
}

// Open builds a System from a scenario. A scenario carrying a shards
// block opens as a federated deployment (one network per shard); one
// declaring a fault environment (a faults block, or loss_rate) opens with
// it armed on every shard (per-shard seeds, see
// config.Scenario.ShardFaults).
func Open(s *Scenario, opts ...OpenOption) (*System, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	shardScens, err := s.ShardScenarios()
	if err != nil {
		return nil, err
	}
	src, err := s.Source()
	if err != nil {
		return nil, err
	}
	sys := &System{
		scenario:   s,
		shardScens: shardScens,
		source:     src,
		schema:     query.DefaultSchema(),
		fedStats:   &fed.Stats{},
		groups:     make(map[string]*groupState),
	}
	if cfg.admission != nil {
		sys.admission = engine.NewAdmission(*cfg.admission)
	}
	for i, sub := range shardScens {
		net, err := sub.Network()
		if err != nil {
			return nil, err
		}
		net.SetParallel(cfg.parallel)
		sys.nets = append(sys.nets, net)
		if cfg.dataDir != "" {
			store, err := storage.OpenStore(filepath.Join(cfg.dataDir, s.ShardName(i)), storage.DefaultStoreWindow)
			if err != nil {
				return nil, err
			}
			sys.stores = append(sys.stores, store)
		}
	}
	if err := sys.stackDets(); err != nil {
		return nil, err
	}
	if env := s.FaultEnv(); env != nil {
		if err := sys.armFaults(env); err != nil {
			return nil, err
		}
	}
	return sys, nil
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
func (s *System) Network() *sim.Network {
	if len(s.nets) == 0 {
		return nil
	}
	return s.nets[0]
}

// Networks returns every shard's simulated network, in shard order (a
// single entry for a flat deployment).
func (s *System) Networks() []*sim.Network { return append([]*sim.Network(nil), s.nets...) }

// Shards reports the number of shard deployments (1 for a flat scenario).
func (s *System) Shards() int {
	if s.Remote() {
		return len(s.remotes)
	}
	return len(s.nets)
}

// FederationStats reports the coordinator tier's accumulated traffic —
// phase-1 reports, phase-2 targeted fetches and backhaul bytes. All zero
// on a flat deployment.
func (s *System) FederationStats() FederationTraffic { return s.fedStats.Snapshot() }

// ResetAccounting clears traffic and energy counters on every shard,
// e.g. between a warm-up and a measured window.
func (s *System) ResetAccounting() {
	for _, net := range s.nets {
		net.Reset()
	}
}

// PostOption tunes how a query is posted.
type PostOption func(*postConfig)

type postConfig struct {
	live   bool
	window int
	faults *FaultConfig
	tenant string
}

// WithTenant attributes the posted query to a tenant for admission
// accounting (see WithAdmission). Unattributed posts share the empty
// tenant.
func WithTenant(name string) PostOption {
	return func(c *postConfig) { c.tenant = name }
}

// WithFaults arms the deployment's fault environment — deterministic
// seeded link loss, frame duplication/delay and node churn — before the
// query attaches. Faults are physical and therefore deployment-wide: they
// degrade every query on this System, on both substrates. Arm them in the
// scenario file or at the first posted query; posting WithFaults after a
// different fault environment is armed, or after the live deployment has
// started, is an error.
func WithFaults(cfg FaultConfig) PostOption {
	return func(c *postConfig) { c.faults = &cfg }
}

// WithLive deploys the query on the concurrent substrate: the same network
// state machine and the same sweep as the deterministic one, safe for any
// number of queries at once and with a history window per node (the
// engine's equivalence tests pin answers and every counter to the
// deterministic substrate). All live cursors of a System share one
// deployment and advance in epoch lock-step — the epoch is sensed once no
// matter how many queries are posted — and Step is safe to call from
// concurrent goroutines. Call Close when done to stop the deployment.
func WithLive() PostOption { return func(c *postConfig) { c.live = true } }

// WithLiveWindow sets the live deployment's per-node history buffer
// capacity (default 64). Only the first live post sizes the deployment.
func WithLiveWindow(n int) PostOption { return func(c *postConfig) { c.window = n } }

// Post parses, plans and prepares a query. Snapshot (continuous) queries
// return a cursor advanced with Step; historic queries are executed by Run.
func (s *System) Post(sql string, opts ...PostOption) (*Cursor, error) {
	return s.PostWith(sql, AlgoAuto, opts...)
}

// PostWith posts a query pinned to a specific algorithm (the System Panel
// uses this to compare MINT against the baselines on identical workloads).
func (s *System) PostWith(sql string, algo Algorithm, opts ...PostOption) (*Cursor, error) {
	cfg := postConfig{window: 64}
	for _, o := range opts {
		o(&cfg)
	}
	plan, err := query.PlanText(sql, s.schema)
	if err != nil {
		return nil, err
	}
	if s.Remote() {
		if cfg.live {
			return nil, fmt.Errorf("kspot: a remote deployment has no local live substrate — each shard process picks its own (kspotd -serve-shard -live)")
		}
		if cfg.faults != nil {
			return nil, fmt.Errorf("kspot: fault environments on a remote deployment are armed in the shard processes' scenarios, not at the coordinator")
		}
	}
	// Admission runs after parsing (a malformed query is a syntax error,
	// never a consumed slot) and before any deployment work: a rejected
	// post touches nothing, so running cursors keep stepping undisturbed.
	if s.admission != nil {
		if err := s.admission.Admit(cfg.tenant); err != nil {
			return nil, err
		}
	}
	// Arm (when requested) and register this post in one critical section:
	// arming is refused while any other post is attaching or attached, so
	// no cursor can slip below the churn injector concurrently.
	s.mu.Lock()
	armed := false
	if cfg.faults != nil {
		if err := s.armFaultsLocked(cfg.faults); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		armed = true
	}
	s.posting++
	s.mu.Unlock()

	cur := &Cursor{sys: s, plan: plan, algo: algo, live: cfg.live, tenant: cfg.tenant, admitted: s.admission != nil}
	if cfg.live {
		s.ensureLive(cfg.window)
	}
	err = cur.prepare()

	s.mu.Lock()
	s.posting--
	if err != nil {
		if armed && !s.posted && s.posting == 0 {
			// Nothing attached (or is attaching) under this environment:
			// disarm so a corrected retry can arm again instead of being
			// stuck with "already armed" from a post that never existed.
			// If another post did attach meanwhile, it attached to the
			// injector — the environment is in use and must stay armed.
			s.disarmFaultsLocked()
		}
		s.mu.Unlock()
		if cur.admitted {
			// The slot reserved above frees: a post that never produced a
			// cursor must not count against the tenant forever.
			s.admission.Release(cfg.tenant)
		}
		return nil, err
	}
	s.posted = true
	s.mu.Unlock()
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

// newTier builds a tier over in-process shard transports.
func (s *System) newTier(tps []engine.Transport) *tier {
	t := &tier{deps: make([]*engine.Deployment, len(tps))}
	for i, tp := range tps {
		t.deps[i] = engine.NewDeployment(s.scenario.ShardName(i), tp, s.source)
	}
	t.sched = engine.NewScheduler(t.deps...)
	return t
}

// shardStack builds shard i's transport over a substrate (the simulated
// network, or the Live over it): behind the armed fault environment's
// injector, tapped by the shard's durable tier when WithDataDir armed one —
// the one stack a wire shard server builds too.
func (s *System) shardStack(i int, substrate engine.Transport) (engine.Transport, error) {
	var cfg *faults.Config
	if s.faultCfg != nil {
		cfg = &s.faultCfgs[i]
	}
	var recs []engine.ReadingsRecorder
	if i < len(s.stores) {
		recs = append(recs, s.stores[i])
	}
	return faults.Stack(substrate, cfg, recs...)
}

// stackDets (re)builds the deterministic tier under the current fault
// environment. On a failure every link fault model it may have installed
// is removed again and the tier stands as it was.
func (s *System) stackDets() error {
	tps := make([]engine.Transport, len(s.nets))
	for i, net := range s.nets {
		tp, err := s.shardStack(i, net)
		if err != nil {
			for _, n := range s.nets[:i+1] {
				n.SetFault(nil)
			}
			return err
		}
		tps[i] = tp
	}
	s.det = s.newTier(tps)
	return nil
}

// armFaults installs the fault environment on the deterministic substrate
// and remembers the config so ensureLive degrades the concurrent one
// identically. First arm wins; re-arming is an error, and so is arming
// after (or while) any cursor attached — its operator would sit below the
// churn injector and degrade inconsistently. The environment is shared
// physical state, not a per-query knob.
func (s *System) armFaults(cfg *faults.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.armFaultsLocked(cfg)
}

func (s *System) armFaultsLocked(cfg *faults.Config) error {
	if s.faultCfg != nil {
		return fmt.Errorf("kspot: fault environment already armed")
	}
	if s.posted || s.posting > 0 {
		return fmt.Errorf("kspot: faults must be armed before the first posted query")
	}
	if s.lives != nil {
		return fmt.Errorf("kspot: faults must be armed before the live deployment starts")
	}
	// Specialize the environment per shard (derived seeds, churn filtered
	// to the shard's own nodes) and re-stack every deterministic substrate;
	// a flat deployment's single "shard" keeps the config verbatim.
	cfgs := make([]faults.Config, len(s.nets))
	for i := range s.nets {
		cfgs[i] = s.scenario.ShardFaults(*cfg, i)
	}
	s.faultCfg, s.faultCfgs = cfg, cfgs
	if err := s.stackDets(); err != nil {
		s.faultCfg, s.faultCfgs = nil, nil
		return err
	}
	return nil
}

// disarmFaultsLocked undoes an arm that no cursor ever attached under:
// the links' fault models are removed and the deterministic tier drops
// back to the bare networks.
func (s *System) disarmFaultsLocked() {
	for _, net := range s.nets {
		net.SetFault(nil)
	}
	s.faultCfg, s.faultCfgs = nil, nil
	s.stackDets() // cannot fail without a fault environment to wrap
}

// ensureLive lazily starts the shared concurrent deployment — one Live
// substrate per shard — and its tier. An armed fault environment wraps
// each live transport with its shard's churn injector (frame faults
// already live in the shared links), so both substrates degrade
// identically.
func (s *System) ensureLive(window int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lives != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	lives := make([]*engine.Live, len(s.nets))
	tps := make([]engine.Transport, len(s.nets))
	for i, net := range s.nets {
		lives[i] = engine.NewLive(net, engine.LiveOptions{Window: window})
		lives[i].Start(ctx)
		tp, err := s.shardStack(i, lives[i])
		if err != nil {
			// Unreachable: the config validated when the deterministic
			// substrate armed, and Live hosts every fault kind. A
			// silent fall-through would leave the live substrate in a
			// perfect world while det runs degraded — fail loudly.
			panic("kspot: wrapping live substrate with armed faults: " + err.Error())
		}
		tps[i] = tp
	}
	s.lives, s.liveCancel = lives, cancel
	s.live = s.newTier(tps)
}

// tierOf returns the tier a cursor's continuous query schedules on, under
// the System lock (the live one can be torn down by Close concurrently
// with cursor use).
func (s *System) tierOf(live bool) (*tier, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !live {
		return s.det, nil
	}
	if s.live == nil {
		return nil, fmt.Errorf("kspot: system is closed")
	}
	return s.live, nil
}

// beginRun returns the tier a one-shot historic execution runs on. On the
// live substrate it also registers the run, so a concurrent Close waits it
// out before stopping the live deployment; the check and the registration
// share one critical section — snapshotting first and registering later
// would leave a window where Close tears the substrate down under a run
// that already holds its transports. release must be called when the run
// completes.
func (s *System) beginRun(live bool) (t *tier, release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !live {
		return s.det, func() {}, nil
	}
	if s.live == nil {
		return nil, nil, fmt.Errorf("kspot: system is closed")
	}
	s.liveRuns.Add(1)
	return s.live, s.liveRuns.Done, nil
}

// Close stops the live deployment, if one was started,
// and drops every remote shard connection on a remote deployment (frames
// in flight are interrupted; their cursors' Steps return an error, and so
// does every later Step).
// In-flight Steps complete first on the live substrate; later Steps on
// live cursors return an error. Safe to call multiple times and
// concurrently with in-flight Steps; deterministic-only Systems need no
// Close.
func (s *System) Close() {
	if s.Remote() {
		for _, cl := range s.remoteClients() {
			cl.Close()
		}
		s.det.sched.Close() // after the in-flight round the closed sockets just failed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lives != nil {
		s.live.sched.Close() // waits out any in-flight scheduled epoch
		s.liveRuns.Wait()    // and any in-flight one-shot historic run
		for _, live := range s.lives {
			live.Stop()
		}
		s.liveCancel()
		s.lives, s.live, s.liveCancel = nil, nil, nil
	}
	for _, store := range s.stores {
		store.Close()
	}
	s.stores = nil
}

// StorageStats snapshots every shard's durable-tier storage block
// (log files, bytes on disk, last checkpointed epoch, and the failure
// that stopped a shard persisting, if any), in shard order. On
// a remote deployment the blocks come over the wire from each shard
// process; on a local System without WithDataDir every shard reports the
// zero block (no durable tier is armed).
func (s *System) StorageStats() ([]storage.StoreStats, error) {
	if s.Remote() {
		remotes := s.remoteClients()
		out := make([]storage.StoreStats, 0, len(remotes))
		for _, cl := range remotes {
			st, err := cl.StorageStats()
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]storage.StoreStats, len(s.nets))
	for i := range s.nets {
		if i < len(s.stores) && s.stores[i] != nil {
			out[i] = s.stores[i].Stats()
		}
	}
	return out, nil
}

// LiveWindows exposes the live deployment's buffered per-node history
// across every shard (empty when no live query has been posted).
func (s *System) LiveWindows() map[NodeID][]model.Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lives == nil {
		return nil
	}
	out := make(map[NodeID][]model.Value)
	for _, live := range s.lives {
		for id, series := range live.Windows() {
			out[id] = series
		}
	}
	return out
}

// SystemPanel renders the current traffic/energy statistics, optionally
// against a baseline captured earlier with CaptureStats. A federated
// deployment's panel leads with the per-shard traffic table and the
// coordinator tier's backhaul, then the aggregate panel — every radio
// message is accounted to the shard that transmitted it.
func (s *System) SystemPanel(baseline *RunStats) string {
	var base *stats.RunStats
	if baseline != nil {
		b := stats.RunStats(*baseline)
		base = &b
	}
	if !s.Remote() && len(s.nets) == 1 {
		return gui.SystemPanel(stats.Collect("current", s.nets[0], 0), base) + s.storageLines()
	}
	rows, err := s.shardStatRows()
	if err != nil {
		return fmt.Sprintf("system panel unavailable: %v\n", err)
	}
	total := stats.Merge("total", rows...)
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

// RenderSystemPanel renders a previously captured run against an optional
// baseline (both from CaptureStats).
func RenderSystemPanel(run RunStats, baseline *RunStats) string {
	var base *stats.RunStats
	if baseline != nil {
		b := stats.RunStats(*baseline)
		base = &b
	}
	return gui.SystemPanel(stats.RunStats(run), base)
}

// RunStats is a captured statistics snapshot (see CaptureStats).
type RunStats stats.RunStats

// CaptureStats snapshots the deployment's counters under a label, summed
// across every shard network — fetched over the wire on a remote
// deployment (an unreachable shard leaves its counters out of the sum).
func (s *System) CaptureStats(label string, epochs int) RunStats {
	if !s.Remote() && len(s.nets) == 1 {
		return RunStats(stats.Collect(label, s.nets[0], epochs))
	}
	rows, err := s.shardStatRows()
	if err != nil {
		return RunStats{Algorithm: label, Epochs: epochs}
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
