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
	// committed sense epoch, the ledger resumes from the node record it
	// recovered, and the shard closes it.
	Store *storage.Store
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
}

// New assembles shard cfg.Shard of the scenario: network → fault
// environment → the store's tap → deployment — the one place a shard is put
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
		name:   cfg.Scenario.ShardName(cfg.Shard),
		roster: subs[cfg.Shard].Roster(),
		net:    net,
		src:    src,
		store:  cfg.Store,
	}
	if env := cfg.Scenario.FaultEnv(); env != nil {
		if err := faults.Arm(net, cfg.Scenario.ShardFaults(*env, cfg.Shard)); err != nil {
			return nil, err
		}
	}
	var tp engine.Transport = net
	if cfg.Store != nil {
		tp = engine.Recorded{Transport: tp, Rec: cfg.Store}
		b.restoreEnergy(cfg.Store.Energies())
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

// Reset forgets everything session-scoped — the attachments — for a new
// coordinator session. A historic execution holds nothing between its
// calls, so there is nothing of it to forget. The durable tier and the
// network's state (energy spent, counters) persist: the field and its
// history do not reset because a new coordinator dialed in. Nothing else
// may be in flight.
func (b *Shard) Reset() {
	b.dep.Drain()
	b.dep = engine.NewDeployment(b.name, b.dep.Transport(), b.src)
}

// EpochRound runs one whole epoch of the shard (engine.RemoteShard): the
// call an in-process scheduler makes on the deployment itself.
func (b *Shard) EpochRound(e model.Epoch, queries []uint32) (map[model.NodeID]model.Reading, []engine.RemoteGroupResult, error) {
	return b.dep.EpochRound(e, queries)
}

// Attach plans sql on the shard and attaches its snapshot operator under id
// — the shard derives everything from the text, so coordinator and shard
// cannot disagree about what the query means. An id already attached keeps
// its operator: attaching it again would reset state such as MINT's views.
func (b *Shard) Attach(id uint32, algo, sql string) error {
	if b.dep.Holds(id) {
		return nil
	}
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

// HistoricTopK buffers the shard's windows and runs the historic operator
// over them, returning the ranked instants and the number of nodes holding
// a window. Nothing outlives the call: FetchSums re-reads the instants it
// is asked for.
func (b *Shard) HistoricTopK(algo string, q topk.HistoricQuery) ([]model.Answer, int, error) {
	op, err := registry.Historic(algo)
	if err != nil {
		return nil, 0, err
	}
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	data, err := b.history(q.Window, nil)
	if err != nil {
		return nil, 0, err
	}
	answers, err := op.Run(b.dep.Transport(), q, data)
	if err != nil {
		return nil, 0, err
	}
	return answers, len(data), nil
}

// FetchSums returns the exact local sums of the given instants of the
// shard's windows — the coordinator's phase-2 targeted sweep.
func (b *Shard) FetchSums(window int, ids []model.GroupID) (map[model.GroupID]int64, error) {
	for _, id := range ids {
		if int(id) >= window {
			return nil, fmt.Errorf("shard: instant %d outside window %d", id, window)
		}
	}
	data, err := b.history(window, ids)
	if err != nil {
		return nil, err
	}
	return topk.FetchHistoricSums(b.dep.Transport(), data, ids), nil
}

// history reads the shard's buffered windows, the one place both historic
// phases get them: each sensor node's window [0, window), sampled from the
// flat trace source by global node id, so per-epoch indices align across
// shards at the coordinator with no translation. Phase 1 reads every
// instant (instants nil); phase 2 samples only the instants it fetches,
// into series that end at the latest of them and hold zero at every other
// offset, which FetchHistoricSums never reads. The trace is a function of
// (node, epoch) alone, so the two phases read the same values with nothing
// kept between them.
func (b *Shard) history(window int, instants []model.GroupID) (topk.HistoricData, error) {
	nodes := b.dep.Transport().Topology().SensorNodes()
	if instants == nil {
		series, err := storage.BufferSeries(nodes, window, b.src.Sample)
		return topk.HistoricData(series), err
	}
	n := 0 // series length: one past the latest instant
	for _, t := range instants {
		n = max(n, int(t)+1)
	}
	data := make(topk.HistoricData, len(nodes))
	buf := make([]model.Value, len(nodes)*n)
	for i, node := range nodes {
		series := buf[i*n : (i+1)*n : (i+1)*n]
		for _, t := range instants {
			series[t] = model.Quantize(b.src.Sample(node, model.Epoch(t)))
		}
		data[node] = series
	}
	return data, nil
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

// ledger reads nodes' energy-ledger totals in µJ under one acquisition of
// the network's lock.
func (b *Shard) ledger(nodes []model.NodeID) []float64 {
	uj := make([]float64, len(nodes))
	b.net.Locked(func() {
		for i, n := range nodes {
			uj[i] = b.net.Ledger.Node(int(n))
		}
	})
	return uj
}

// Ledger reads the roster's energy-ledger totals, ascending by node: the
// node record a served shard appends to its log.
func (b *Shard) Ledger() []storage.NodeEnergy {
	uj := b.ledger(b.roster)
	rows := make([]storage.NodeEnergy, len(b.roster))
	for i, n := range b.roster {
		rows[i] = storage.NodeEnergy{Node: n, UJ: uj[i]}
	}
	return rows
}

// Snapshot serializes the durable tier with the energy ledger: a storage
// snapshot image, the store's records plus its node record.
func (b *Shard) Snapshot() ([]byte, error) {
	if b.store == nil {
		return nil, fmt.Errorf("shard: %s has no durable tier to snapshot", b.name)
	}
	return b.store.Image(b.ledger), nil
}

// Restore applies a Snapshot image. The moved nodes' energy arrives
// bit-exact: the ledger resumes the source shard's partial sums, so
// post-migration totals equal the never-migrated run's.
func (b *Shard) Restore(img []byte) error {
	if b.store == nil {
		return fmt.Errorf("shard: %s has no durable tier to restore", b.name)
	}
	rows, err := b.store.Restore(img)
	if err != nil {
		return err
	}
	b.restoreEnergy(rows)
	return nil
}

// restoreEnergy resumes nodes' ledger totals (and spent budgets).
func (b *Shard) restoreEnergy(rows []storage.NodeEnergy) {
	for _, r := range rows {
		b.net.RestoreEnergy(r.Node, r.UJ)
	}
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
