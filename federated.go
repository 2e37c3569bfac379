package kspot

// Remote federation: a PR 4/5 federated deployment as N+1 real processes.
// Each shard runs inside its own kspotd -serve-shard process (or any
// wire.Server host) on its own substrate; OpenFederated dials them and
// builds a coordinator-only System whose shard handles are wire clients
// instead of in-process shard bodies. Everything above the shard contract
// (shardHandle) is the same code — the one engine.Scheduler, the same
// fed.Merger two-phase snapshot merge and fed.HistoricMerger threshold
// round run at this coordinator, on shard answers that crossed a socket
// instead of a struct boundary — so answers and coordinator-tier counters
// stay byte-identical to the in-process federated run, which is itself
// pinned byte-identical to the flat run.

import (
	"fmt"
	"time"

	"kspot/internal/engine"
	"kspot/internal/query"
	"kspot/internal/stats"
	"kspot/internal/topk/fed"
	"kspot/internal/wire"
)

// withWireTimeout bounds each remote shard call attempt (default 10s) —
// the tests shorten it to fail a dead shard fast. Applies to OpenFederated
// only.
func withWireTimeout(call time.Duration) OpenOption {
	return func(c *openConfig) { c.wireCall = call }
}

// withWireRetry sets the per-call retry budget of a remote deployment:
// retries re-attempts after the first (default 4), sleeping backoff
// before the first retry and doubling it per attempt (default 50ms). The
// tests tune it to a degraded socket or a restarting shard; retries are
// safe at any setting — the shard executes each call at most once
// regardless of how many frames the socket loses. Applies to
// OpenFederated only.
func withWireRetry(retries int, backoff time.Duration) OpenOption {
	return func(c *openConfig) {
		c.wireRetries = retries
		c.wireBackoff = backoff
	}
}

// OpenFederated opens a scenario whose shards are already running as
// remote processes: addrs[i] is shard i's wire address, index-aligned
// with the scenario's shard list (a flat scenario takes one address). The
// scenario must be the same flat scenario every shard server was started
// with — the handshake verifies name, shard count and per-shard node
// counts, so a version- or deployment-skewed shard fails Open instead of
// corrupting an epoch stream.
//
// The returned System is coordinator-only: it holds no local networks
// (Network returns nil, traffic panels fetch per-shard counters over the
// wire) and its queries run on the same lock-step scheduler as an
// in-process System's. The concurrency of a shard (-parallel) is each shard
// process's own setting, and the fault environment is the scenario's, armed
// in the shard processes.
// Close drops every shard connection;
// an unreachable shard surfaces on the cursor that steps into it, tagged
// with the shard's name, without wedging other queries.
func OpenFederated(s *Scenario, addrs []string, opts ...OpenOption) (*System, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	shardScens, err := s.ShardScenarios()
	if err != nil {
		return nil, err
	}
	if len(addrs) != len(shardScens) {
		return nil, fmt.Errorf("kspot: %d shard addresses for a %d-shard scenario", len(addrs), len(shardScens))
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
	sys.wireCfg = cfg
	clients, deps, err := dialShards(s, shardScens, addrs, cfg)
	if err != nil {
		return nil, err
	}
	sys.sched, sys.shards = engine.NewShardScheduler(deps...), clients
	return sys, nil
}

// dialShards dials every shard of a sharded scenario, returning the wire
// clients (as shard handles) and their deployments index-aligned with
// addrs. On any dial failure the already-open clients close and the error
// returns.
func dialShards(s *Scenario, shardScens []*Scenario, addrs []string, cfg openConfig) ([]shardHandle, []*engine.RemoteDeployment, error) {
	clients := make([]shardHandle, 0, len(addrs))
	deps := make([]*engine.RemoteDeployment, len(addrs))
	for i, addr := range addrs {
		cl, err := wire.Dial(wire.ClientConfig{
			Addr:        addr,
			Scenario:    s.Name,
			Shard:       i,
			Shards:      len(shardScens),
			Nodes:       len(shardScens[i].Nodes),
			Roster:      shardScens[i].Roster(),
			CallTimeout: cfg.wireCall,
			Retries:     cfg.wireRetries,
			Backoff:     cfg.wireBackoff,
		})
		if err != nil {
			for _, prev := range clients {
				prev.Close()
			}
			return nil, nil, err
		}
		clients = append(clients, cl)
		deps[i] = engine.NewRemoteDeployment(s.ShardName(i), cl)
	}
	return clients, deps, nil
}

// Remote reports whether this System coordinates remote shard processes
// (it holds no shard bodies of its own).
func (s *System) Remote() bool { return len(s.local) == 0 }

// WireMetrics snapshots every shard connection's RTT/traffic accounting
// (calls, epoch rounds, retries, p50/p99 latency, bytes both ways), in
// shard order. Nil on a local System — its shards have no wire.
func (s *System) WireMetrics() []wire.ClientMetrics {
	var out []wire.ClientMetrics
	for _, h := range s.handles() {
		if cl, ok := h.(*wire.Client); ok {
			out = append(out, cl.Metrics())
		}
	}
	return out
}

// nextQueryID allocates a System-unique id for an acquisition group's
// attachment.
func (s *System) nextQueryID() uint32 { return s.qidSeq.Add(1) }

// ShardStats returns every shard's traffic/energy counters, in shard
// order — on a remote deployment the rows the shards' newest replies
// carried (no wire call), where a shard whose last call ended unreachable
// surfaces as the error.
func (s *System) ShardStats() ([]RunStats, error) {
	rows, err := s.shardStatRows()
	if err != nil {
		return nil, err
	}
	out := make([]RunStats, len(rows))
	for i, r := range rows {
		out[i] = RunStats(r)
	}
	return out, nil
}

// shardStatRows is ShardStats in the stats package's own type, for panels.
func (s *System) shardStatRows() ([]stats.RunStats, error) {
	shards := s.handles()
	rows := make([]stats.RunStats, len(shards))
	for i, h := range shards {
		var err error
		if rows[i], err = h.Stats(); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
