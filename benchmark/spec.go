package main

import "fmt"

// The benchmark's fixed vocabulary: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository root
// restates it for the driver; TestBenchmarkJSONMatchesSpec keeps the two
// equal. Later issues cite these names, so none may be renamed.

// workload is one deployment shape plus the query mix posted onto it.
type workload struct {
	Name string
	Why  string

	Scale   int  // sensors of the scale-<n> scenario; 0 = the paper's 14-node demo
	Shards  int  // 0 = one flat kspotd; N = coordinator + N -serve-shard processes
	Durable bool // -data-dir, a fixed epoch budget, and restarts on the same directory

	SenseKeys int // distinct sensing signatures among the queries
	Queries   int // total live queries during the window, the daemon's primary included
	Tenants   int // named tenants the posted queries are spread over (0 = none)
	Quota     int // -tenant-quota (0 = no admission control)
	Posts     int // closed-loop POST /query calls of the post phase, after the window

	TracedEpochs int // fixed length of the in-process traced run
}

// durableEpochsPerSecond turns --seconds into flat-durable's fixed epoch
// budget. The budget, not the clock, ends that workload's window: the
// restarts replay what the run wrote, so a faster daemon must not be
// handed more to replay.
const durableEpochsPerSecond = 160

// auditEpochs is how many of a watcher's first events are compared, byte
// for byte, with the in-process reference.
const auditEpochs = 128

var workloads = []workload{
	{
		Name:  "flat-sweep",
		Why:   "1000 nodes, one query: the live sweep, view merge/codec and radio/energy accounting do the work; serving, wire, fed and storage do none",
		Scale: 1000, SenseKeys: 1, Queries: 1, Posts: 20, TracedEpochs: 1000,
	},
	{
		Name:      "flat-tenants",
		Why:       "14 nodes, 128 queries in 2 groups over 4 tenants under a quota: planning, admission, member cuts, per-cursor oracle, hub and SSE encoding dominate",
		SenseKeys: 2, Queries: 128, Tenants: 4, Quota: 48, Posts: 200, TracedEpochs: 5000,
	},
	{
		Name:  "fed-wire",
		Why:   "coordinator plus 2 shard processes on the sim substrate: the only workload where wire, RemoteCoordinator, fed.Merger and the sim sweep run",
		Scale: 1000, Shards: 2, SenseKeys: 2, Queries: 8, Posts: 20, TracedEpochs: 1000,
	},
	{
		Name:  "flat-durable",
		Why:   "flat-sweep plus -data-dir and a fixed epoch budget, then kill -9 and restarts: storage appends beside the sweep and recovery replays every segment",
		Scale: 1000, Durable: true, SenseKeys: 1, Queries: 1, TracedEpochs: 1000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec is one dictionary entry. Bound is the share of the baseline
// by which an end-to-end metric may worsen before -compare (and the
// driver) call it a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	How    string
}

// endToEnd is what a user of the daemon sees, measured from outside the
// process with tracing off. Every metric is defined (and non-zero) on
// every workload and, recovery_s apart, is the median over the pass's
// instances; see README.md for how each is taken and why the timing bounds
// are as wide as they are.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "exec of the first daemon process to the first event at every watcher"},
	{"epochs_per_s", "1/s", "higher", 0.25, "epochs stepped in the window (from /stats) over its wall time"},
	{"epoch_ms_p50", "ms", "lower", 0.25, "median gap between consecutive epoch events at watcher 0"},
	{"epoch_p95_over_mean", "ratio", "lower", 0.25, "95th percentile of the same gaps over their mean: the tail in epoch periods, which the host's speed cancels out of"},
	{"cpu_ms_per_epoch", "ms", "lower", 0.25, "utime+stime of every daemon process over the window, per epoch"},
	{"rss_mb", "MiB", "lower", 0.15, "sum of VmHWM over the daemon processes at window end"},
	{"radio_msgs_per_epoch", "msgs", "lower", 0.15, "radio messages per epoch over the window, from /stats"},
	{"radio_tx_bytes_per_epoch", "B", "lower", 0.10, "radio bytes transmitted per epoch over the window, from /stats"},
	{"egress_bytes_per_epoch", "B", "lower", 0.05, "bytes leaving the daemons per epoch: one SSE stream + coordinator backhaul and wire + segment appends"},
	{"recovery_s", "s", "lower", 0.25, "kill -9, then exec to the kspotd-http line on the same inputs and data dir; median of the restarts"},
}

// perLayer lists every per-layer metric; a layer that does not run on a
// workload reports 0 there.
var perLayer = []metricSpec{
	// Wall-share self times from the traced run, µs per epoch.
	{Name: "engine.step_us", Unit: "us", Better: "lower", How: "root span: one full iteration of the daemon's epoch loop"},
	{Name: "engine.sched_self_us", Unit: "us", Better: "lower", How: "scheduler / remote coordinator: presample wait, sense commit, group bookkeeping, member cut, reading union"},
	{Name: "topk.acquire_self_us", Unit: "us", Better: "lower", How: "operator logic above the transport"},
	{Name: "engine.live_transport_us", Unit: "us", Better: "lower", How: "Transport calls (sweep, beacons, sends) on the live substrate"},
	{Name: "sim.transport_us", Unit: "us", Better: "lower", How: "the same calls on the deterministic substrate"},
	{Name: "fed.merge_us", Unit: "us", Better: "lower", How: "coordinator-tier merges, all members"},
	{Name: "topk.oracle_us", Unit: "us", Better: "lower", How: "per-cursor ExactSnapshot + EqualAnswers"},
	{Name: "storage.record_us", Unit: "us", Better: "lower", How: "Store.RecordReadings beside the sense commit"},
	{Name: "wire.round_us", Unit: "us", Better: "lower", How: "client-side EpochRound duration, mean over shards"},
	{Name: "wire.shard_exec_us", Unit: "us", Better: "lower", How: "request read to reply written on the server side of the socket, mean over shards"},
	{Name: "wire.overhead_us", Unit: "us", Better: "lower", How: "round minus shard exec: framing, client codec, loopback, hand-offs"},
	{Name: "wire.round_skew", Unit: "ratio", Better: "lower", How: "slowest shard round over the mean, per epoch"},
	{Name: "serve.publish_us", Unit: "us", Better: "lower", How: "Hub.Publish, all members"},
	{Name: "serve.deliver_us", Unit: "us", Better: "lower", How: "Publish to Subscriber.Next returning, mean (off the epoch path)"},
	{Name: "kspotd.marshal_us", Unit: "us", Better: "lower", How: "json.Marshal(serve.Result) per delivered event (off the epoch path)"},
	{Name: "kspotd.capture_stats_us", Unit: "us", Better: "lower", How: "the loop's per-epoch CaptureStats (a stats RPC per shard when remote)"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", How: "root self time over root: loop time no layer span covers"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", How: "traced over undecorated in-process epoch time, minus one"},
	// Isolated calls on inputs captured from the traced run.
	{Name: "engine.sense_us", Unit: "us", Better: "lower", How: "PresampleEpoch + CommitSenseEpoch on the deterministic substrate"},
	{Name: "trace.sample_ns", Unit: "ns", Better: "lower", How: "Source.Sample"},
	{Name: "model.codec_ns_per_view", Unit: "ns", Better: "lower", How: "AppendView + DecodeViewInto of an epoch's full group view"},
	{Name: "model.merge_ns_per_view", Unit: "ns", Better: "lower", How: "View.MergeView of two such views"},
	{Name: "wire.codec_us_per_round", Unit: "us", Better: "lower", How: "AppendEpochRoundReply + DecodeEpochRoundReply of one shard's epoch"},
	{Name: "query.plan_us", Unit: "us", Better: "lower", How: "query.PlanText over the generated queries"},
	{Name: "engine.admit_ns", Unit: "ns", Better: "lower", How: "Admission.Admit + Release"},
	{Name: "storage.recover_ms", Unit: "ms", Better: "lower", How: "OpenStore on the traced run's directory"},
	{Name: "serve.fanout64_us", Unit: "us", Better: "lower", How: "one Publish to 64 subscribers, drained by one goroutine"},
	// Exact counts of the traced run.
	{Name: "radio.msgs_per_epoch", Unit: "msgs", Better: "lower", How: "radio messages per epoch"},
	{Name: "radio.tx_bytes_per_epoch", Unit: "B", Better: "lower", How: "radio bytes transmitted per epoch"},
	{Name: "radio.drops_per_epoch", Unit: "count", Better: "lower", How: "frames dropped per epoch"},
	{Name: "energy.uj_per_epoch", Unit: "uJ", Better: "lower", How: "energy ledger total per epoch"},
	{Name: "trace.samples_per_epoch", Unit: "count", Better: "lower", How: "Source.Sample calls per epoch"},
	{Name: "engine.groups", Unit: "count", Better: "lower", How: "shared-acquisition groups"},
	{Name: "engine.members", Unit: "count", Better: "lower", How: "scheduled queries"},
	{Name: "engine.sweeps_per_epoch", Unit: "count", Better: "lower", How: "Transport.Sweep calls per epoch"},
	{Name: "engine.allocs_per_epoch", Unit: "count", Better: "lower", How: "heap allocations per epoch of the undecorated run"},
	{Name: "engine.alloc_bytes_per_epoch", Unit: "B", Better: "lower", How: "heap bytes allocated per epoch of the undecorated run"},
	{Name: "fed.coord_bytes_per_epoch", Unit: "B", Better: "lower", How: "coordinator backhaul bytes (fed.Stats) per epoch"},
	{Name: "fed.phase2_reqs_per_epoch", Unit: "count", Better: "lower", How: "targeted phase-2 fetches per epoch"},
	{Name: "wire.rounds_per_epoch", Unit: "count", Better: "lower", How: "epoch-opening wire calls per epoch, all shards"},
	{Name: "wire.bytes_per_epoch", Unit: "B", Better: "lower", How: "wire bytes both ways per epoch, all shards"},
	{Name: "wire.retries", Unit: "count", Better: "lower", How: "wire calls that needed more than one attempt"},
	{Name: "storage.bytes_per_epoch", Unit: "B", Better: "lower", How: "segment bytes appended per epoch"},
	{Name: "storage.segments", Unit: "count", Better: "lower", How: "segment files"},
	{Name: "serve.deliveries_per_epoch", Unit: "count", Better: "lower", How: "results handed to subscribers per epoch"},
	{Name: "kspotd.sse_bytes_per_epoch", Unit: "B", Better: "lower", How: "SSE bytes per epoch over every subscriber"},
	// Observed on the real daemons during the untraced pass.
	{Name: "proc.build_s", Unit: "s", Better: "lower", How: "go build of cmd/kspotd (cached after the first run in a checkout)"},
	{Name: "proc.coord_cpu_ms_per_epoch", Unit: "ms", Better: "lower", How: "CPU of the HTTP-serving daemon per epoch"},
	{Name: "proc.shard_cpu_ms_per_epoch", Unit: "ms", Better: "lower", How: "CPU of the shard processes per epoch, summed"},
	{Name: "proc.fds", Unit: "count", Better: "lower", How: "open file descriptors over the daemon processes at window end"},
	{Name: "proc.threads", Unit: "count", Better: "lower", How: "OS threads over the daemon processes at window end"},
	{Name: "kspotd.epoch_ms_p95", Unit: "ms", Better: "lower", How: "95th percentile of the epoch gaps at watcher 0, in ms (end to end it is gated as epoch_p95_over_mean)"},
	{Name: "kspotd.epoch_ms_p99", Unit: "ms", Better: "lower", How: "99th percentile of the same gaps"},
	{Name: "kspotd.post_query_ms_p50", Unit: "ms", Better: "lower", How: "POST /query latency of the post phase, median"},
	{Name: "kspotd.post_query_ms_p95", Unit: "ms", Better: "lower", How: "the same, 95th percentile"},
	{Name: "kspotd.post_429_count", Unit: "count", Better: "lower", How: "429 answers in the post phase (must equal the quota arithmetic)"},
	{Name: "kspotd.stats_ms_p50", Unit: "ms", Better: "lower", How: "GET /stats latency, median"},
	{Name: "kspotd.watch_attach_ms", Unit: "ms", Better: "lower", How: "GET /watch to the first event, median over watchers"},
	{Name: "wire.rtt_p50_ms", Unit: "ms", Better: "lower", How: "the daemon's own ClientMetrics p50, mean over shards"},
	{Name: "wire.rtt_p99_ms", Unit: "ms", Better: "lower", How: "the daemon's own ClientMetrics p99, max over shards"},
	{Name: "host.yardstick_ms", Unit: "ms", Better: "lower", How: "the generator's fixed unit of work, timed between the instances: the host's speed when the run was made"},
	{Name: "host.speed", Unit: "ratio", Better: "higher", How: "reference yardstick time over this run's: the factor the end-to-end times were brought to the reference host's speed by"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower", How: "the generator's CPU over wall time in the window"},
}

// metric is one reported value. Samples is the count behind a percentile
// or median (0 where the value is a plain ratio of counters).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metrics map[string]metric

// set records a value under a dictionary name; the unit comes from the
// dictionary so a typo cannot mint a new metric.
func (m metrics) set(name string, v float64, samples int) {
	m[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the dictionary")
}

// verdict is the correctness side of a pass: operations attempted, the
// ones that violated the gate, and the first few violations for the log.
type verdict struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

func (v *verdict) add(o verdict) {
	v.Attempted += o.Attempted
	v.Failed += o.Failed
	v.Problems = append(v.Problems, o.Problems...)
}

func (v *verdict) fail(format string, args ...any) {
	v.Failed++
	if len(v.Problems) < 10 {
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}
}
