package kspot

// The differential harness: every "X answers like flat" pin of this package
// is a row of data run by one runner. A row names a world, the queries
// posted on it, the host its shards run on and the knobs that must not
// change an answer (shard count, Parallel, socket faults, how the cursors
// are stepped). The runner runs the row, then holds it to its reference —
// the same world, queries, epochs and faults, in process at Parallel 1 —
// and to its in-process Parallel 1 twin at the row's own shard count.
// References are memoized per configuration, so rows sharing one build it
// once. What is really one test's own stays beside its rows as a check.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/storage"
	"kspot/internal/wire"
	"kspot/internal/wire/wiretest"
)

// row is one differential run, plain data so a generator can emit it.
type row struct {
	name string
	// world is "demo", "demo-diurnal" (the demo under the diurnal
	// workload), "demo-ties" (see tiedRooms), "figure1", "scale-<n>" or a
	// scenarios/*.json path.
	world string
	// shards: 0 keeps the world's own split, 1 runs it flat, n > 1 splits
	// it n ways (AutoShard).
	shards   int
	parallel int          // WithParallel; on a wire row, each server's
	faults   *FaultConfig // the radio fault environment; nil keeps the world's own
	queries  []rowQuery
	// epochs is how far the continuous queries step; the one-shot
	// (historic) queries Run after them, in row order.
	epochs int
	wire   bool // shards behind loopback wire servers
	// durable gives in-process shards a store in a fresh data dir (a wire
	// server always keeps one); the runner then compares store images.
	durable bool
	frames  wiretest.Faults // socket frame faults on a wire row, with a retry budget to absorb them
	// concurrent steps each cursor from its own goroutine instead of in
	// epoch lock-step from one; frame steps each epoch's cursors in one
	// System.StepFrame; poll reads every shard's counters row and storage
	// block after each lock-step epoch, as a /stats poll does.
	concurrent, frame, poll bool
	long                    bool // skipped in -short mode
	// checks are the row's own assertions, run on the still-open System.
	checks []check
}

// check is one test's own assertion on a run.
type check func(t *testing.T, r row, sys *System, got outcome)

// rowQuery is one posted query.
type rowQuery struct {
	sql  string
	algo Algorithm
}

// outcome is what one run observed.
type outcome struct {
	steps    [][]StepResult // [continuous query][epoch]
	historic [][]Answer     // one answer set per one-shot query
	perEpoch []RunStats     // CaptureStats after each lock-step epoch
	capture  RunStats       // CaptureStats after the run
	shards   []RunStats     // ShardStats after the run
	fed      FederationTraffic
	images   [][]byte // each store's image, node energies zeroed
}

// runRows runs every row as a subtest of t.
func runRows(t *testing.T, rows []row) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("long differential row in -short mode")
			}
			r.run(t)
		})
	}
}

// run executes the row and holds it to its reference and its twin. Answers
// are compared byte for byte with their oracle verdicts; the traffic row,
// the coordinator tier and the per-shard rows wherever the deployment is
// the same one (the twin's, or a reference that is the twin).
func (r row) run(t *testing.T) {
	ref, twin := r.reference(t), r.twin()
	want := memo(t, ref)
	sys, stores := r.open(t)
	defer sys.Close()
	got := drive(t, sys, stores, r)
	remember(t, r, got)
	compare(t, "vs reference", got, want, ref.key(t) == twin.key(t))
	if ref.key(t) != twin.key(t) && twin.key(t) != r.key(t) {
		compare(t, "vs in-process Parallel 1", got, memo(t, twin), true)
	}
	r.invariants(t, sys, got)
	for _, c := range r.checks {
		c(t, r, sys, got)
	}
}

// grid expands one row into a row per algorithm, shard count and Parallel
// bound, its one query posted under each algorithm. The base row's name is
// the rows' name template, over the algorithm (%[1]s), the shard count
// (%[2]d), the Parallel bound (%[3]d) and whether it is above 1 (%[4]v).
func grid(base row, algos []Algorithm, shards, parallels []int) []row {
	var rows []row
	for _, a := range algos {
		for _, n := range shards {
			for _, p := range parallels {
				r := base
				r.name = fmt.Sprintf(base.name, cmp.Or(string(a), "auto"), n, p, p > 1)
				r.queries = []rowQuery{{base.queries[0].sql, a}}
				r.shards, r.parallel = n, p
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// reference is the row a run is held to: in process at Parallel 1, flat
// when no faults are armed and at the row's own shard count when they are
// (each shard derives its own fault seed, so a sharded faulty world is not
// the flat one).
func (r row) reference(t *testing.T) row {
	ref := r.twin()
	if !r.scenario(t).Faults.Enabled() {
		ref.shards = 1
	}
	return ref
}

// twin is the row in process at Parallel 1: the same deployment, so every
// counter must equal the row's.
func (r row) twin() row {
	return row{world: r.world, shards: r.shards, parallel: 1, faults: r.faults, queries: r.queries, epochs: r.epochs, durable: r.durable}
}

// key names a row's configuration for the memo: every field that can
// change what a run observes, the shard count as deployed (an unsplit
// world's 0 is its 1, so a flat twin is its own reference).
func (r row) key(t *testing.T) string {
	if r.shards == 0 && len(r.scenario(t).Shards) == 0 {
		r.shards = 1
	}
	f, _ := json.Marshal(r.faults)
	return fmt.Sprintf("%s|%d|%d|%s|%v|%d|%v|%+v|%v|%v|%v|%v", r.world, r.shards, r.parallel, f, r.queries, r.epochs,
		r.wire, r.frames, r.durable, r.concurrent, r.frame, r.poll)
}

var (
	memoMu sync.Mutex
	runs   = map[string]outcome{}
	worlds = map[string]*Scenario{}
)

// memo returns r's outcome, running it on a fresh System the first time
// (held to the invariants like any row).
func memo(t *testing.T, r row) outcome {
	t.Helper()
	k := r.key(t)
	memoMu.Lock()
	out, ok := runs[k]
	memoMu.Unlock()
	if !ok {
		sys, stores := r.open(t)
		defer sys.Close()
		out = drive(t, sys, stores, r)
		r.invariants(t, sys, out)
		remember(t, r, out)
	}
	return out
}

// remember keeps a run as its configuration's outcome unless one is kept.
func remember(t *testing.T, r row, out outcome) {
	k := r.key(t)
	memoMu.Lock()
	defer memoMu.Unlock()
	if _, ok := runs[k]; !ok {
		runs[k] = out
	}
}

// scenario builds the row's world: generated or loaded once, copied per
// use, then split and armed as the row says.
func (r row) scenario(t *testing.T) *Scenario {
	t.Helper()
	memoMu.Lock()
	base, ok := worlds[r.world]
	memoMu.Unlock()
	if !ok {
		var err error
		switch {
		case r.world == "demo":
			base = DemoScenario()
		case r.world == "demo-diurnal":
			base = DemoScenario()
			base.Workload.Kind = "diurnal"
		case r.world == "demo-ties":
			base = DemoScenario()
			fix := map[string][]float64{}
			for _, n := range base.Nodes {
				fix[strconv.Itoa(int(n.ID))] = []float64{tiedRooms[n.Cluster]}
			}
			base.Workload = config.Workload{Kind: "fixture", Fixture: fix}
		case r.world == "figure1":
			base = Figure1Scenario()
		case strings.HasPrefix(r.world, "scale-"):
			n, _ := strconv.Atoi(strings.TrimPrefix(r.world, "scale-"))
			base, err = ScaleScenario(n)
		default:
			base, err = config.Load(r.world)
		}
		if err != nil {
			t.Fatal(err)
		}
		memoMu.Lock()
		worlds[r.world] = base
		memoMu.Unlock()
	}
	scen := *base
	if r.faults != nil {
		scen.Faults = r.faults
	}
	if r.shards > 0 {
		if err := scen.AutoShard(r.shards); err != nil {
			t.Fatal(err)
		}
	}
	return &scen
}

// tiedRooms is each demo room's score in the demo-ties world: every sensor
// of a room reads it. Rooms 2, 3, 5 and 6 tie at the top, and split 2 or 4
// ways ({1,2,3}/{4,5,6} or {1}/{2,3}/{4}/{5,6}) two shards each rank two of
// them first.
var tiedRooms = map[uint16]float64{1: 40, 2: 70, 3: 70, 4: 40, 5: 70, 6: 70}

// open deploys the row — in process, or behind one loopback wire server per
// shard — and returns it with its shards' stores, if they keep any.
func (r row) open(t *testing.T) (*System, []*storage.Store) {
	t.Helper()
	var stores []*storage.Store
	if !r.wire {
		opts := []OpenOption{WithParallel(r.parallel)}
		if r.durable {
			opts = append(opts, WithDataDir(t.TempDir()))
		}
		sys, err := Open(r.scenario(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range sys.local {
			if b.Store() != nil {
				stores = append(stores, b.Store())
			}
		}
		return sys, stores
	}
	addrs, servers := startFaultyWireShards(t, r.scenario(t), r.parallel, r.frames)
	for _, srv := range servers {
		stores = append(stores, srv.Store())
	}
	var opts []OpenOption
	if r.frames != (wiretest.Faults{}) {
		opts = []OpenOption{withWireTimeout(250 * time.Millisecond), withWireRetry(10, 2*time.Millisecond)}
	}
	sys, err := OpenFederated(r.scenario(t), addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys, stores
}

// drive posts the row's queries, steps the continuous ones, runs the
// one-shot ones and reads the counters and the stores.
func drive(t *testing.T, sys *System, stores []*storage.Store, r row) outcome {
	t.Helper()
	var cont, once []*Cursor
	for _, q := range r.queries {
		if cur := post(t, sys, q.sql, q.algo); cur.Continuous() {
			cont = append(cont, cur)
		} else {
			once = append(once, cur)
		}
	}
	out := outcome{steps: make([][]StepResult, len(cont))}
	record := func(i int, res StepResult, err error) bool {
		if err == nil && r.frame && res.Exact != nil {
			err = fmt.Errorf("a frame's result carries Exact %v", res.Exact)
		}
		if err != nil {
			t.Errorf("query %d epoch %d: %v", i, len(out.steps[i]), err)
			return false
		}
		out.steps[i] = append(out.steps[i], res)
		return true
	}
	if r.concurrent {
		var wg sync.WaitGroup
		for i := range cont {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := 0; e < r.epochs; e++ {
					if res, err := cont[i].Step(); !record(i, res, err) {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for e := 0; e < r.epochs && !r.concurrent; e++ {
		if r.frame {
			sys.StepFrame(cont, func(i int, res StepResult, err error) { record(i, res, err) })
		}
		for i := range cont {
			if !r.frame {
				res, err := cont[i].Step()
				record(i, res, err)
			}
		}
		out.perEpoch = append(out.perEpoch, sys.CaptureStats("run", e+1))
		if r.poll {
			if _, err := sys.ShardStats(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.StorageStats(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, cur := range once {
		answers, err := cur.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != cur.plan.Historic.K {
			t.Fatalf("%q answered %d instants, want %d", cur.Query(), len(answers), cur.plan.Historic.K)
		}
		out.historic = append(out.historic, answers)
	}
	out.capture = sys.CaptureStats("run", r.epochs)
	var err error
	if out.shards, err = sys.ShardStats(); err != nil {
		t.Fatal(err)
	}
	out.fed = sys.FederationStats()
	for _, st := range stores {
		out.images = append(out.images, st.Image(func(nodes []NodeID) []float64 { return make([]float64, len(nodes)) }))
	}
	return out
}

// post posts sql under algo, failing the test on an error.
func post(t *testing.T, sys *System, sql string, algo Algorithm) *Cursor {
	t.Helper()
	cur, err := sys.PostWith(sql, algo)
	if err != nil {
		t.Fatalf("post %q: %v", sql, err)
	}
	return cur
}

// compare requires got to answer like want — every epoch's answers byte
// for byte with the same oracle verdict, every one-shot answer byte for
// byte — and, with traffic, to have counted and recorded like it.
func compare(t *testing.T, label string, got, want outcome, traffic bool) {
	t.Helper()
	if len(got.steps) != len(want.steps) || len(got.historic) != len(want.historic) {
		t.Fatalf("%s: %d continuous and %d one-shot queries, want %d and %d", label,
			len(got.steps), len(got.historic), len(want.steps), len(want.historic))
	}
	for q := range want.steps {
		stepEqualByteIdentical(t, fmt.Sprintf("%s query %d", label, q), got.steps[q], want.steps[q])
	}
	for q := range want.historic {
		if !bytes.Equal(answerBytes(got.historic[q]), answerBytes(want.historic[q])) {
			t.Fatalf("%s one-shot query %d: %v, want %v", label, q, got.historic[q], want.historic[q])
		}
	}
	if !traffic {
		return
	}
	if len(got.perEpoch) > 0 && len(want.perEpoch) > 0 && len(got.perEpoch) != len(want.perEpoch) {
		t.Fatalf("%s: counters read after %d epochs, want %d", label, len(got.perEpoch), len(want.perEpoch))
	}
	for e := range min(len(got.perEpoch), len(want.perEpoch)) {
		sameTraffic(t, fmt.Sprintf("%s: traffic after epoch %d", label, e), got.perEpoch[e], want.perEpoch[e])
	}
	sameTraffic(t, label+": captured traffic", got.capture, want.capture)
	if got.fed != want.fed {
		t.Fatalf("%s: coordinator tier %+v, want %+v", label, got.fed, want.fed)
	}
	if len(got.shards) != len(want.shards) {
		t.Fatalf("%s: %d shard rows, want %d", label, len(got.shards), len(want.shards))
	}
	for i := range want.shards {
		sameTraffic(t, fmt.Sprintf("%s: shard %d", label, i), got.shards[i], want.shards[i])
	}
	if len(want.images) > 0 && !reflect.DeepEqual(got.images, want.images) {
		t.Fatalf("%s: the shards' store images diverged", label)
	}
}

// invariants are what every run must show on its own: the deployment the
// row asked for, the epoch lock-step, oracle-exact answers on a reliable
// radio, radio traffic, drops where loss is armed, per-shard rows summing
// to the capture
// and a coordinator tier that merged once per stepped query per epoch and
// once per one-shot query.
func (r row) invariants(t *testing.T, sys *System, got outcome) {
	t.Helper()
	scen := sys.Scenario()
	shards := max(1, len(scen.Shards))
	if sys.Shards() != shards || sys.Remote() != r.wire {
		t.Fatalf("system has %d shards (remote %v), want %d (remote %v)", sys.Shards(), sys.Remote(), shards, r.wire)
	}
	for q, steps := range got.steps {
		for e, res := range steps {
			if res.Epoch != Epoch(e) {
				t.Fatalf("query %d: epoch %d at step %d (lock-step broken)", q, res.Epoch, e)
			}
			if !res.Correct && !scen.Faults.Enabled() {
				t.Fatalf("query %d epoch %d: answers %v diverged from oracle %v", q, e, res.Answers, res.Exact)
			}
		}
	}
	if f := scen.Faults; f.Enabled() && f.Loss > 0 && got.capture.Drops == 0 {
		t.Fatal("loss armed but no frame was dropped")
	}
	if len(r.queries) > 0 && got.capture.Messages == 0 {
		t.Fatal("no radio traffic recorded")
	}
	var sum [5]int
	for _, s := range got.shards {
		for i, v := range radioCounters(s) {
			sum[i] += v
		}
	}
	if sum != radioCounters(got.capture) {
		t.Fatalf("per-shard rows sum to %v, capture holds %v (msgs, frames, tx, rx, drops)", sum, radioCounters(got.capture))
	}
	rounds := r.epochs*len(got.steps) + len(got.historic)
	switch {
	case shards == 1 && got.fed != (FederationTraffic{}):
		t.Fatalf("flat deployment has a coordinator tier: %+v", got.fed)
	case shards > 1 && (got.fed.Rounds != rounds || got.fed.Phase1Msgs != shards*rounds || got.fed.TxBytes == 0):
		t.Fatalf("coordinator tier unaccounted: %+v, want %d rounds of %d shards", got.fed, rounds, shards)
	}
}

// radioCounters projects a row onto its in-network radio traffic.
func radioCounters(s RunStats) [5]int {
	return [5]int{s.Messages, s.Frames, s.TxBytes, s.RxBytes, s.Drops}
}

// sameTraffic fails unless two counters rows are equal in every column:
// label, epochs, radio traffic, per-kind bytes and the energies (sums of
// integer picojoules, so equal values are equal bits).
func sameTraffic(t *testing.T, label string, got, want RunStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// answerBytes pins byte-identity: two answer sets are byte-identical iff
// their model-codec encodings are equal bytes.
func answerBytes(answers []Answer) []byte {
	var b []byte
	for _, a := range answers {
		b = model.AppendAnswer(b, a)
	}
	return b
}

// stepEqualByteIdentical requires two step streams to carry byte-identical
// answers and the same oracle verdict at every epoch.
func stepEqualByteIdentical(t *testing.T, label string, got, want []StepResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs vs %d", label, len(got), len(want))
	}
	for e := range got {
		if !bytes.Equal(answerBytes(got[e].Answers), answerBytes(want[e].Answers)) || got[e].Correct != want[e].Correct {
			t.Fatalf("%s epoch %d: %v (correct %v), want %v (correct %v)", label, e,
				got[e].Answers, got[e].Correct, want[e].Answers, want[e].Correct)
		}
	}
}

// shardedDemo returns the Figure-3 conference deployment split into n
// federated shards.
func shardedDemo(t *testing.T, n int) *Scenario {
	t.Helper()
	return row{world: "demo", shards: n}.scenario(t)
}

// startWireShards runs one wire.Server per shard of the scenario on
// loopback listeners (in-process, so the whole protocol runs under the
// race detector) and returns their addresses in shard order.
func startWireShards(t *testing.T, scen *Scenario, parallel int) ([]string, []*wire.Server) {
	t.Helper()
	return startFaultyWireShards(t, scen, parallel, wiretest.Faults{})
}

// startFaultyWireShards is startWireShards with frame faults injected on
// the servers' side of every connection.
func startFaultyWireShards(t *testing.T, scen *Scenario, parallel int, frames wiretest.Faults) ([]string, []*wire.Server) {
	t.Helper()
	shardScens, err := scen.ShardScenarios()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(shardScens))
	servers := make([]*wire.Server, len(shardScens))
	for i := range shardScens {
		srv, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: i, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(wiretest.Listen(ln, frames))
		t.Cleanup(srv.Close)
		addrs[i] = ln.Addr().String()
		servers[i] = srv
	}
	return addrs, servers
}
