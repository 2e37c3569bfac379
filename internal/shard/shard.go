// Package shard is the one shard host. A shard is a sensor field with its
// own base station: a network, the armed fault environment, the durable
// tier's tap and the attached queries' operators.
// Shard assembles that once and answers the whole shard contract — attach,
// detach, epoch rounds, historic executions, stats, state — in process;
// internal/wire's Server serves the same body over a socket (its handler is
// decode → body → encode) and internal/wire's Client answers the same
// methods from the far side. kspot.System drives local and remote shards
// through one interface both satisfy, so every shard-side behavior exists
// exactly once, here.
package shard

import (
	"fmt"
	"sync"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/faults"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/sim"
	"kspot/internal/stats"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/registry"
	"kspot/internal/trace"
)

// Config names one shard of a scenario and how to host it.
type Config struct {
	// Scenario is the FLAT scenario (with its shards block). The shard
	// deploys only its own sub-scenario but samples the trace source built
	// from the flat one — the federation invariant behind the
	// identical-answer guarantee (see engine.Deployment).
	Scenario *config.Scenario
	// Shard indexes the scenario's shard list (0 on a flat scenario).
	Shard int
	// Parallel bounds the network's sweep workers and the deployment's
	// concurrent acquisitions (sim.Network.SetParallel).
	Parallel int
	// Store, when non-nil, is the shard's durable tier: it taps every
	// committed sense epoch, and the shard closes it.
	Store *storage.Store
	// Taps are further recorders stacked above the store's (a shard server's
	// journal checkpoint).
	Taps []engine.ReadingsRecorder
}

// Shard is one assembled shard. Its stack is fixed when it is assembled.
// The fault environment is the scenario's (Scenario.FaultEnv, specialized
// per shard), armed on the network here and nowhere else.
type Shard struct {
	name   string
	roster []model.NodeID
	net    *sim.Network
	src    trace.Source
	store  *storage.Store
	dep    *engine.Deployment

	mu        sync.Mutex
	historics map[uint32]topk.HistoricData // buffered windows per execution
}

// New assembles shard cfg.Shard of the scenario: network → fault
// environment → recorder taps → deployment — the one place a shard is put
// together.
func New(cfg Config) (*Shard, error) {
	subs, err := cfg.Scenario.ShardScenarios()
	if err != nil {
		return nil, err
	}
	if cfg.Shard < 0 || cfg.Shard >= len(subs) {
		return nil, fmt.Errorf("shard: shard %d out of range (scenario %q has %d)", cfg.Shard, cfg.Scenario.Name, len(subs))
	}
	net, err := subs[cfg.Shard].Network()
	if err != nil {
		return nil, err
	}
	net.SetParallel(cfg.Parallel)
	src, err := cfg.Scenario.Source()
	if err != nil {
		return nil, err
	}
	b := &Shard{
		name:      cfg.Scenario.ShardName(cfg.Shard),
		roster:    subs[cfg.Shard].Roster(),
		net:       net,
		src:       src,
		store:     cfg.Store,
		historics: make(map[uint32]topk.HistoricData),
	}
	if env := cfg.Scenario.FaultEnv(); env != nil {
		if err := faults.Arm(net, cfg.Scenario.ShardFaults(*env, cfg.Shard)); err != nil {
			return nil, err
		}
	}
	var tp engine.Transport = net
	if cfg.Store != nil {
		tp = engine.Recorded{Transport: tp, Rec: cfg.Store}
	}
	for _, rec := range cfg.Taps {
		tp = engine.Recorded{Transport: tp, Rec: rec}
	}
	b.dep = engine.NewDeployment(b.name, tp, src)
	return b, nil
}

// Name returns the shard's display name.
func (b *Shard) Name() string { return b.name }

// Roster returns the shard's sensor node ids, ascending (shared, read-only).
func (b *Shard) Roster() []model.NodeID { return b.roster }

// Network exposes the shard's simulated network (topology, counters,
// ledger).
func (b *Shard) Network() *sim.Network { return b.net }

// Store exposes the shard's durable tier; nil without one.
func (b *Shard) Store() *storage.Store { return b.store }

// Deployment exposes the engine-side shard an in-process scheduler drives
// (it needs the concrete type to pipeline and drain it).
func (b *Shard) Deployment() *engine.Deployment { return b.dep }

// Attached reports how many queries are attached.
func (b *Shard) Attached() int { return b.dep.Attached() }

// Reset forgets everything session-scoped — attachments, cached historic
// executions, the durable tier's contents — for a new coordinator session.
// Network state (energy spent, counters) persists: the field does not reset
// because a new coordinator dialed in. Nothing else may be in flight.
func (b *Shard) Reset() error {
	b.dep.Drain()
	b.dep = engine.NewDeployment(b.name, b.dep.Transport(), b.src)
	b.mu.Lock()
	b.historics = make(map[uint32]topk.HistoricData)
	b.mu.Unlock()
	if b.store == nil {
		return nil
	}
	return b.store.Reset()
}

// EpochRound runs one whole epoch of the shard (engine.RemoteShard): the
// call an in-process scheduler makes on the deployment itself.
func (b *Shard) EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []engine.RemoteGroupResult, error) {
	return b.dep.EpochRound(e, queries)
}

// Attach plans sql on the shard and attaches its snapshot operator under id
// — the shard derives everything from the text, so coordinator and shard
// cannot disagree about what the query means.
func (b *Shard) Attach(id uint32, algo, sql string) error {
	plan, err := query.PlanText(sql, query.DefaultSchema())
	if err != nil {
		return err
	}
	switch plan.Kind {
	case query.PlanHistoricTopK:
		return fmt.Errorf("shard: historic query %q executes via the historic round, not attach", sql)
	case query.PlanBasic:
		algo = "tag" // basic queries always run plain acquisition
	}
	op, err := registry.Snapshot(algo)
	if err != nil {
		return err
	}
	if err := op.Attach(b.dep.Transport(), plan.Snapshot); err != nil {
		return err
	}
	// GROUP BY ... WITH HISTORY filters locally first (§III-B): each node's
	// "reading" is the aggregate of its buffered window ending at the epoch,
	// derived from the shared sensing without charging it again.
	var override trace.Source
	if plan.Kind == query.PlanHistoricGroupTopK {
		override = trace.WindowAgg(b.src, plan.History, plan.Snapshot.Agg)
	}
	b.dep.Attach(id, op, override)
	return nil
}

// Detach releases an attachment. An id that is not attached is a no-op: a
// coordinator releasing a partly failed attach names shards that never held
// it.
func (b *Shard) Detach(id uint32) error {
	b.dep.Detach(id)
	return nil
}

// HistoricTopK buffers the shard's windows under exec and runs the historic
// operator over them, returning the ranked instants and the number of nodes
// holding a window; the windows stay cached for FetchSums until Release.
// They are materialized from the flat trace source by global node id, so
// per-epoch indices align across shards at the coordinator with no
// translation.
func (b *Shard) HistoricTopK(exec uint32, algo string, q topk.HistoricQuery) ([]model.Answer, int, error) {
	op, err := registry.Historic(algo)
	if err != nil {
		return nil, 0, err
	}
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	tp := b.dep.Transport()
	series, err := storage.BufferSeries(tp.Topology().SensorNodes(), q.Window, b.src.Sample)
	if err != nil {
		return nil, 0, err
	}
	data := topk.HistoricData(series)
	answers, err := op.Run(tp, q, data)
	if err != nil {
		return nil, 0, err
	}
	b.mu.Lock()
	b.historics[exec] = data
	b.mu.Unlock()
	return answers, len(data), nil
}

// FetchSums returns the exact local sums of the given instants of a cached
// execution — the coordinator's phase-2 targeted sweep.
func (b *Shard) FetchSums(exec uint32, ids []model.GroupID) (map[model.GroupID]int64, error) {
	b.mu.Lock()
	data, ok := b.historics[exec]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("shard: historic execution %d unknown", exec)
	}
	return topk.FetchHistoricSums(b.dep.Transport(), data, ids), nil
}

// Release drops an execution's cached windows; unknown ids are a no-op.
func (b *Shard) Release(exec uint32) error {
	b.mu.Lock()
	delete(b.historics, exec)
	b.mu.Unlock()
	return nil
}

// Stats reads the shard's traffic and energy counters.
func (b *Shard) Stats() (stats.RunStats, error) {
	return stats.Collect(b.name, b.net, 0), nil
}

// StorageStats reads the durable tier's storage block (zero without one).
func (b *Shard) StorageStats() (storage.StoreStats, error) {
	if b.store == nil {
		return storage.StoreStats{}, nil
	}
	return b.store.Stats(), nil
}

// EnergyOf reads one node's ledger total in µJ.
func (b *Shard) EnergyOf(n model.NodeID) (uj float64) {
	b.net.Locked(func() { uj = b.net.Ledger.Node(int(n)) })
	return uj
}

// Snapshot serializes the durable tier with the energy ledger
// (storage.ShardState bytes).
func (b *Shard) Snapshot() ([]byte, error) {
	if b.store == nil {
		return nil, fmt.Errorf("shard: %s has no durable tier to snapshot", b.name)
	}
	return storage.AppendShardState(nil, b.store.State(b.EnergyOf)), nil
}

// Restore applies a Snapshot image. The moved nodes' energy arrives
// bit-exact: the ledger resumes the source shard's partial sums, so
// post-migration totals equal the never-migrated run's.
func (b *Shard) Restore(img []byte) error {
	if b.store == nil {
		return fmt.Errorf("shard: %s has no durable tier to restore", b.name)
	}
	st, err := storage.DecodeShardState(img)
	if err != nil {
		return err
	}
	if err := b.store.Restore(st); err != nil {
		return err
	}
	for _, ns := range st.Nodes {
		b.net.RestoreEnergy(ns.Node, ns.EnergyUJ)
	}
	return nil
}

// Close releases the shard: the in-flight presample drains and the durable
// tier closes. Safe to call more than once.
func (b *Shard) Close() error {
	b.dep.Drain()
	if b.store == nil {
		return nil
	}
	return b.store.Close()
}
