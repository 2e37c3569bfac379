package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// passConfig sizes one untraced pass against real daemons. Everything here
// is a constant of the benchmark on a given --seconds: identical on every
// commit, so two runs differ only by the code under test.
//
// A pass measures several independent cold deployments — instances — one
// after another, and reports every metric as the median over them: a burst
// of host interference spoils one instance, not the run's number; what is
// one process's luck (layout, hash seeds, GC phase) is not taken for the
// code's speed; and set-up is timed several times, as the driver asks.
type passConfig struct {
	kspotd    string        // built daemon binary
	tmp       string        // the run's temp dir: generated inputs, data dirs, daemon logs
	instances int           // cold deployments measured per pass
	window    time.Duration // measured window per instance
	warmup    time.Duration // discarded head of each instance's epoch stream
	budget    int           // flat-durable: -epochs per instance; its first tenth is the warm-up
	restarts  int           // kill -9 + restart rounds; recovery_s is their median
	deadline  time.Duration // per-workload limit on the whole pass
}

// instancesPerPass splits --seconds: five instances, a fifth of the
// measured time each.
const instancesPerPass = 5

func defaultPass(kspotd, tmp string, seconds float64, w workload) passConfig {
	window := time.Duration(seconds / instancesPerPass * float64(time.Second))
	// A restart that replays a data dir takes a third of a second, a bare
	// cold start a few hundredths and is the noisier for it: it is repeated
	// three times as often.
	restarts := 45
	if w.Durable {
		restarts = 15
	}
	return passConfig{
		kspotd: kspotd, tmp: tmp, instances: instancesPerPass,
		window: window, warmup: time.Second,
		budget:   int(window.Seconds() * durableEpochsPerSecond),
		restarts: restarts, deadline: 150 * time.Second,
	}
}

// saturated is the epoch interval of every measured daemon: the ticker is
// always ready, so the epoch loop is a closed loop of one — the next epoch
// starts when the previous one has been stepped, published and accounted.
const saturated = "50us"

// parked keeps a restarted daemon from stepping: recovery_s ends at its
// ready line and nothing may run after it.
const parked = "1h"

// passResult is what one untraced pass measured.
type passResult struct {
	E2E      metrics
	Observed metrics // the per-layer metrics seen from outside the daemons
	verdict
}

// deployment is the set of daemon processes serving one workload.
type deployment struct {
	coord  *daemon // the HTTP-serving process (the only one on a flat workload)
	shards []*daemon
	base   string // http://host:port of coord
}

func (d *deployment) all() []*daemon { return append([]*daemon{d.coord}, d.shards...) }

func (d *deployment) kill() {
	for _, p := range d.all() {
		if p != nil {
			p.kill()
		}
	}
}

// start launches the workload's processes and returns once the HTTP daemon
// printed its ready line. firstExec is when the first process was exec'd.
func (c passConfig) start(ctx context.Context, ps *procs, in *inputs, scenario, interval, dataDir string, epochs int) (dep *deployment, firstExec time.Time, err error) {
	w := in.W
	dep = &deployment{}
	defer func() {
		if err != nil {
			dep.kill()
		}
	}()
	args := []string{"-addr", "127.0.0.1:0", "-scenario", scenario, "-interval", interval}
	if w.Quota > 0 {
		args = append(args, "-tenant-quota", fmt.Sprint(w.Quota))
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	if epochs > 0 {
		args = append(args, "-epochs", fmt.Sprint(epochs))
	}
	firstExec = time.Now()
	var coord placement
	if w.Shards > 0 {
		// A federated deployment is several processes on few cores: each gets
		// one thread running Go code, and each shard a CPU of its own, so the
		// processes do not take turns with each other's idle threads and the
		// kernel does not move a shard mid-epoch. The coordinator, which runs
		// while the shards wait and waits while they run, takes whichever CPU
		// is free.
		coord = placement{threads: 1}
		dep.shards = make([]*daemon, w.Shards)
		errs := make([]error, w.Shards)
		var wg sync.WaitGroup
		for i := range dep.shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				dep.shards[i], errs[i] = ps.spawn(ctx, c.kspotd, "kspotd-wire ", placement{threads: 1, pinned: true, cpu: i},
					"-scenario", scenario, "-shards", fmt.Sprint(w.Shards), "-serve-shard", fmt.Sprint(i),
					"-wire-addr", "127.0.0.1:0", "-parallel", "1")
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return dep, firstExec, err
		}
		addrs := make([]string, w.Shards)
		for i, s := range dep.shards {
			addrs[i] = s.addr
		}
		args = append(args, "-shards", fmt.Sprint(w.Shards), "-connect", strings.Join(addrs, ","))
	}
	if dep.coord, err = ps.spawn(ctx, c.kspotd, "kspotd-http ", coord, args...); err != nil {
		return dep, firstExec, err
	}
	dep.base = "http://" + dep.coord.addr
	return dep, firstExec, nil
}

// statsReply is the part of GET /stats the generator reads.
type statsReply struct {
	Epoch      int64 `json:"epoch"`
	Messages   int64 `json:"messages"`
	TxBytes    int64 `json:"tx_bytes"`
	Queries    int   `json:"queries"`
	CoordBytes int64 `json:"coord_bytes"`
	Wire       []struct {
		Retries  int64 `json:"retries"`
		BytesOut int64 `json:"tx_bytes"`
		BytesIn  int64 `json:"rx_bytes"`
		P50      int64 `json:"p50_us"`
		P99      int64 `json:"p99_us"`
	} `json:"wire"`
	Storage []struct {
		Segments int   `json:"segments"`
		Bytes    int64 `json:"bytes"`
	} `json:"storage"`
}

// offRadioBytes sums what the daemons moved beyond the radio: coordinator
// backhaul, wire frames both ways, segment bytes on disk.
func (s statsReply) offRadioBytes() int64 {
	n := s.CoordBytes
	for _, w := range s.Wire {
		n += w.BytesOut + w.BytesIn
	}
	for _, st := range s.Storage {
		n += st.Bytes
	}
	return n
}

// control is the generator's one control connection: set-up POSTs, the
// /stats reads at the window edges, the post phase.
type control struct {
	base   string
	client *http.Client
}

func newControl(base string) *control {
	return &control{base: base, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *control) close() { c.client.CloseIdleConnections() }

func (c *control) stats(ctx context.Context) (statsReply, error) {
	var out statsReply
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return out, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// postQuery sends one POST /query and returns the status and, on 200, the
// query index the daemon assigned.
func (c *control) postQuery(ctx context.Context, p post) (status, index int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", strings.NewReader(p.SQL))
	if err != nil {
		return 0, 0, err
	}
	if p.Tenant != "" {
		req.Header.Set("X-KSpot-Tenant", p.Tenant)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0, nil
	}
	var reply struct {
		Query int `json:"query"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return resp.StatusCode, 0, fmt.Errorf("POST /query reply %q: %w", body, err)
	}
	return resp.StatusCode, reply.Query, nil
}

// event is one SSE result as the watcher keeps it.
type event struct {
	at    time.Duration // arrival, since the watcher's clock base
	epoch uint32
}

// watcher is one passive SSE connection on /watch?query=N.
type watcher struct {
	query    int
	attached time.Time // when the GET was sent
	firstAt  time.Time // arrival of the first event
	first    chan struct{}
	reached  chan struct{} // closed when an event with epoch >= notifyAt arrives
	notifyAt uint32
	done     chan struct{}
	cancel   context.CancelFunc

	bytes atomic.Int64 // SSE bytes received so far

	// Owned by the reader goroutine until done is closed.
	base    time.Time
	events  []event
	answers [][]byte // raw "answers" of the first auditEpochs events
	bad     []string // events with correct=false, an err, or unparsable
	err     error    // how the stream ended, nil for a clean end or our own cancel
}

// watch opens the stream and reads it until cancelled or ended.
func watch(ctx context.Context, base string, query int, notifyAt uint32) *watcher {
	ctx, cancel := context.WithCancel(ctx)
	w := &watcher{query: query, attached: time.Now(), base: time.Now(), notifyAt: notifyAt,
		first: make(chan struct{}), reached: make(chan struct{}), done: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(w.done)
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/watch?query=%d", base, query), nil)
		if err != nil {
			w.err = err
			return
		}
		resp, err := (&http.Client{Transport: tr}).Do(req)
		if err != nil {
			w.err = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			w.err = fmt.Errorf("GET /watch?query=%d: %s", query, resp.Status)
			return
		}
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		reachedSent := false
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				if err != io.EOF && ctx.Err() == nil {
					w.err = err
				}
				return
			}
			w.bytes.Add(int64(len(line)))
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue // the blank line ending an event
			}
			now := time.Now()
			var res struct {
				Epoch   uint32          `json:"epoch"`
				Answers json.RawMessage `json:"answers"`
				Correct bool            `json:"correct"`
				Err     string          `json:"err"`
			}
			if err := json.Unmarshal(data, &res); err != nil {
				w.bad = append(w.bad, fmt.Sprintf("unparsable event %q", data))
				continue
			}
			if !res.Correct || res.Err != "" {
				w.bad = append(w.bad, fmt.Sprintf("epoch %d: correct=%v err=%q", res.Epoch, res.Correct, res.Err))
			}
			if len(w.events) == 0 {
				w.firstAt = now
				close(w.first)
			}
			w.events = append(w.events, event{at: now.Sub(w.base), epoch: res.Epoch})
			if len(w.answers) < auditEpochs {
				w.answers = append(w.answers, append([]byte(nil), res.Answers...))
			}
			if !reachedSent && res.Epoch >= notifyAt {
				close(w.reached)
				reachedSent = true
			}
		}
	}()
	return w
}

// stop cancels the stream and waits for the reader to finish.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

func waitFor(ctx context.Context, ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("waiting for %s: %w", what, ctx.Err())
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// edge is the generator's reading of the system at one end of a window.
type edge struct {
	at      time.Time
	stats   statsReply
	cpu     []time.Duration // per daemon, deployment.all() order
	selfCPU time.Duration
	sse     int64 // watcher 0's bytes so far
}

func takeEdge(ctx context.Context, ctl *control, dep *deployment, w0 *watcher) (edge, error) {
	var e edge
	var err error
	if e.stats, err = ctl.stats(ctx); err != nil {
		return e, err
	}
	e.at = time.Now()
	for _, p := range dep.all() {
		cpu, err := procCPU(p.pid)
		if err != nil {
			return e, err
		}
		e.cpu = append(e.cpu, cpu)
	}
	if e.selfCPU, err = procCPU(os.Getpid()); err != nil {
		return e, err
	}
	e.sse = w0.bytes.Load()
	return e, nil
}

// instance is one cold deployment, set up and ready to be measured.
type instance struct {
	dep      *deployment
	ctl      *control
	watchers []*watcher
	dataDir  string
}

func (i *instance) close() {
	for _, wt := range i.watchers {
		wt.stop()
	}
	i.ctl.close()
	i.dep.kill()
}

// samples collects each instance's value of every metric measured per
// instance; the pass reports their medians.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// setUp cold-starts the workload's processes on fresh state, POSTs the
// set-up queries and attaches the watchers; it returns once every watcher
// has its first event, and records how long that took from the first exec.
func (c passConfig) setUp(ctx context.Context, ps *procs, in *inputs, scenario string, n int, res *passResult, sm samples) (*instance, error) {
	w := in.W
	inst := &instance{}
	budget := 0
	if w.Durable {
		var err error
		if inst.dataDir, err = os.MkdirTemp(c.tmp, "data-"); err != nil {
			return nil, err
		}
		budget = c.budget
		// Start from a quiet disk: the previous instance's thousand dirty
		// segment files would otherwise be flushed underneath this one.
		syscall.Sync()
	}
	dep, firstExec, err := c.start(ctx, ps, in, scenario, saturated, inst.dataDir, budget)
	if err != nil {
		return nil, err
	}
	inst.dep, inst.ctl = dep, newControl(dep.base)
	for qi, p := range in.Setup {
		res.Attempted++
		status, idx, err := inst.ctl.postQuery(ctx, p)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("set-up POST %d: %w", qi+1, err)
		}
		if status != p.Want || idx != qi+1 {
			res.fail("set-up POST %d: status %d index %d, want %d index %d", qi+1, status, idx, p.Want, qi+1)
		}
	}
	for _, q := range in.Watch {
		// flat-durable's window opens when the stream passes a tenth of the budget.
		inst.watchers = append(inst.watchers, watch(ctx, dep.base, q, uint32(budget/10)))
	}
	last := firstExec
	for _, wt := range inst.watchers {
		select {
		case <-wt.first:
		case <-wt.done:
			err = fmt.Errorf("watcher on query %d ended before its first event: %v", wt.query, wt.err)
		case <-ctx.Done():
			err = fmt.Errorf("waiting for the first event on query %d: %w", wt.query, ctx.Err())
		}
		if err != nil {
			inst.close()
			return nil, err
		}
		if wt.firstAt.After(last) {
			last = wt.firstAt
		}
		sm.add("kspotd.watch_attach_ms", ms(wt.firstAt.Sub(wt.attached)))
	}
	sm.add("setup_s", last.Sub(firstExec).Seconds())
	return inst, nil
}

// spreadSubdirs marks dir so that ext4 places each directory made in it in
// a block group of its own choosing instead of dir's (chattr +T). The root
// file system here has no journal, and without one ext4 will not hand out
// an inode deleted in the last 5 to 35 s: every create walks past all of
// them first. A run's clean-up deletes five thousand segment files, so the
// next run's daemons, whose data dirs land in the same group, took 300 µs to
// create a segment file instead of 10 µs — and flat-durable's set-up 0.45 s
// instead of 0.12 s — depending on how recently what had been run. Spread
// over the disk's groups the data dirs meet nobody's deletions. A file
// system that does not know the flag is left as it is.
func spreadSubdirs(dir string) {
	const (
		getFlags = 0x80086601 // FS_IOC_GETFLAGS
		setFlags = 0x40086602 // FS_IOC_SETFLAGS
		topDir   = 0x00020000 // FS_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= topDir
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags)))
}

// measure runs one instance's warm-up and window. A timed workload sleeps
// through both; the durable one waits for the epoch stream to pass a tenth
// of its budget and then to end. Inside the window the generator does
// nothing: the control connection is used at the edges only.
func (c passConfig) measure(ctx context.Context, in *inputs, inst *instance, sm samples) (from, to time.Time, err error) {
	w, w0 := in.W, inst.watchers[0]
	if w.Durable {
		err = waitFor(ctx, w0.reached, "flat-durable's warm-up epochs")
	} else {
		err = sleepCtx(ctx, c.warmup)
	}
	if err != nil {
		return from, to, err
	}
	e0, err := takeEdge(ctx, inst.ctl, inst.dep, w0)
	if err != nil {
		return from, to, err
	}
	if w.Durable {
		err = waitFor(ctx, w0.done, "the end of flat-durable's epoch budget")
	} else {
		err = sleepCtx(ctx, c.window)
	}
	if err != nil {
		return from, to, err
	}
	e1, err := takeEdge(ctx, inst.ctl, inst.dep, w0)
	if err != nil {
		return from, to, err
	}
	for _, p := range inst.dep.all() {
		if !p.alive() {
			return from, to, fmt.Errorf("daemon %d died during the window", p.pid)
		}
	}

	epochs := float64(e1.stats.Epoch - e0.stats.Epoch)
	if epochs <= 0 {
		return from, to, fmt.Errorf("no epochs in the window (%d → %d)", e0.stats.Epoch, e1.stats.Epoch)
	}
	wall := e1.at.Sub(e0.at)
	if w.Durable {
		// The loop stopped on its own before the end edge was read: the
		// window's wall time is the stream's, not the generator's.
		wall = w0.span(uint32(e0.stats.Epoch), uint32(e1.stats.Epoch))
	}
	sm.add("epochs_per_s", epochs/wall.Seconds())
	var cpuCoord, cpuShards time.Duration
	for i := range e1.cpu {
		if d := e1.cpu[i] - e0.cpu[i]; i == 0 {
			cpuCoord = d
		} else {
			cpuShards += d
		}
	}
	sm.add("cpu_ms_per_epoch", ms(cpuCoord+cpuShards)/epochs)
	sm.add("proc.coord_cpu_ms_per_epoch", ms(cpuCoord)/epochs)
	sm.add("proc.shard_cpu_ms_per_epoch", ms(cpuShards)/epochs)
	sm.add("loadgen.cpu_share", (e1.selfCPU-e0.selfCPU).Seconds()/e1.at.Sub(e0.at).Seconds())
	sm.add("radio_msgs_per_epoch", float64(e1.stats.Messages-e0.stats.Messages)/epochs)
	sm.add("radio_tx_bytes_per_epoch", float64(e1.stats.TxBytes-e0.stats.TxBytes)/epochs)
	sm.add("egress_bytes_per_epoch", float64(e1.sse-e0.sse+e1.stats.offRadioBytes()-e0.stats.offRadioBytes())/epochs)

	var hwm int64
	fds, threads := 0, 0
	for _, p := range inst.dep.all() {
		kib, th, err := procStatus(p.pid)
		if err != nil {
			return from, to, err
		}
		n, err := procFDs(p.pid)
		if err != nil {
			return from, to, err
		}
		hwm, threads, fds = hwm+kib, threads+th, fds+n
	}
	sm.add("rss_mb", float64(hwm)/1024)
	sm.add("proc.fds", float64(fds))
	sm.add("proc.threads", float64(threads))
	var p50, p99 float64
	for _, wm := range e1.stats.Wire {
		p50 += float64(wm.P50) / 1e3 / float64(len(e1.stats.Wire))
		p99 = max(p99, float64(wm.P99)/1e3)
	}
	sm.add("wire.rtt_p50_ms", p50)
	sm.add("wire.rtt_p99_ms", p99)

	return e0.at, e1.at, nil
}

// gapStats adds the percentiles of watcher 0's inter-event gaps inside the
// window. It reads the watcher's events, so the watcher must have stopped.
func gapStats(w0 *watcher, from, to time.Time, sm samples) error {
	gaps := w0.gapsBetween(from, to)
	if len(gaps) < 100 {
		return fmt.Errorf("only %d epoch gaps in the window at watcher 0", len(gaps))
	}
	p50, p95 := percentile(gaps, 50), percentile(gaps, 95)
	sm.add("epoch_ms_p50", p50)
	sm.add("epoch_p95_over_mean", p95/mean(gaps))
	sm.add("kspotd.epoch_ms_p95", p95)
	sm.add("kspotd.epoch_ms_p99", percentile(gaps, 99))
	sm.add("gaps", float64(len(gaps)))
	return nil
}

// runPass runs one workload against real kspotd processes with tracing
// off: per instance a cold set-up, warm-up and window; on the last one also
// the post phase and, after kill -9, the restarts. It returns an error only
// when the pass could not be completed; violations the pass survived are
// counted in Failed.
func (c passConfig) runPass(parent context.Context, in *inputs) (*passResult, error) {
	ctx, cancel := context.WithTimeout(parent, c.deadline)
	defer cancel()
	res := &passResult{E2E: metrics{}, Observed: metrics{}}
	ps := &procs{logDir: c.tmp}
	defer ps.killAll()

	scenario, err := in.write(c.tmp)
	if err != nil {
		return nil, err
	}
	sm := samples{}
	var inst *instance
	for n := 0; n < c.instances; n++ {
		sm.add("host.yardstick_ms", readYardstick())
		if inst, err = c.setUp(ctx, ps, in, scenario, n, res, sm); err != nil {
			return nil, err
		}
		from, to, err := c.measure(ctx, in, inst, sm)
		if err == nil && n == c.instances-1 {
			err = c.postPhase(ctx, in, inst, res)
		}
		inst.close() // kill -9: the last instance's state is what the restarts recover
		if err != nil {
			return nil, err
		}
		// The reader goroutines have stopped: the streams can be read. Every
		// instance's epochs must be gapless and correct; the answers are
		// compared with the reference on the last one.
		if err := gapStats(inst.watchers[0], from, to, sm); err != nil {
			return nil, err
		}
		for _, wt := range inst.watchers {
			c.audit(res, in, wt, n == c.instances-1)
		}
	}

	for i := 0; i < c.restarts; i++ {
		rd, firstExec, err := c.start(ctx, ps, in, scenario, parked, inst.dataDir, 0)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		sm.add("recovery_s", rd.coord.ready.Sub(firstExec).Seconds())
		rd.kill()
	}

	nGaps := 0
	for _, g := range sm["gaps"] {
		nGaps += int(g)
	}
	delete(sm, "gaps")
	sm.add("host.yardstick_ms", readYardstick())
	speed := yardstickRefMs / median(sm["host.yardstick_ms"])
	res.Observed.set("host.speed", speed, len(sm["host.yardstick_ms"]))
	for name, vals := range sm {
		n := len(vals)
		switch name {
		case "epoch_ms_p50", "epoch_p95_over_mean", "kspotd.epoch_ms_p95", "kspotd.epoch_ms_p99":
			n = nGaps // the count behind a percentile is its gaps, over all instances
		}
		// End to end, a time is reported at the reference host's speed; the
		// layer metrics stay as measured, host.speed beside them.
		if slices.ContainsFunc(endToEnd, func(s metricSpec) bool { return s.Name == name }) {
			res.E2E.set(name, atReferenceSpeed(median(vals), unitOf(name), speed), n)
		} else {
			res.Observed.set(name, median(vals), n)
		}
	}
	return res, nil
}

// postPhase is the write side of the serving tier, closed loop on the
// control connection while the epoch loop keeps running, then 20 timed
// reads of /stats. flat-durable has no posts — its loop has stopped and
// refuses them.
func (c passConfig) postPhase(ctx context.Context, in *inputs, inst *instance, res *passResult) error {
	var postMs []float64
	got429 := 0
	for i, p := range in.Phase {
		res.Attempted++
		t := time.Now()
		status, _, err := inst.ctl.postQuery(ctx, p)
		if err != nil {
			return fmt.Errorf("post phase %d: %w", i, err)
		}
		postMs = append(postMs, ms(time.Since(t)))
		if status == http.StatusTooManyRequests {
			got429++
		}
		if status != p.Want {
			res.fail("post phase %d (tenant %q): status %d, want %d", i, p.Tenant, status, p.Want)
		}
	}
	if len(postMs) > 0 {
		res.Observed.set("kspotd.post_query_ms_p50", percentile(postMs, 50), len(postMs))
		res.Observed.set("kspotd.post_query_ms_p95", percentile(postMs, 95), len(postMs))
		res.Observed.set("kspotd.post_429_count", float64(got429), 0)
	}
	var statsMs []float64
	for i := 0; i < 20; i++ {
		res.Attempted++
		t := time.Now()
		if _, err := inst.ctl.stats(ctx); err != nil {
			return err
		}
		statsMs = append(statsMs, ms(time.Since(t)))
	}
	res.Observed.set("kspotd.stats_ms_p50", percentile(statsMs, 50), len(statsMs))
	return nil
}

// gapsBetween returns the gaps, in ms, between consecutive events that
// both arrived within [from, to].
func (w *watcher) gapsBetween(from, to time.Time) []float64 {
	lo, hi := from.Sub(w.base), to.Sub(w.base)
	var gaps []float64
	for i := 1; i < len(w.events); i++ {
		if w.events[i-1].at >= lo && w.events[i].at <= hi {
			gaps = append(gaps, ms(w.events[i].at-w.events[i-1].at))
		}
	}
	return gaps
}

// span is the arrival time between the events of two epochs.
func (w *watcher) span(fromEpoch, toEpoch uint32) time.Duration {
	var from, to time.Duration
	for _, ev := range w.events {
		if ev.epoch == fromEpoch {
			from = ev.at
		}
		if ev.epoch == toEpoch {
			to = ev.at
		}
	}
	return to - from
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadgenProcs caps the generator's parallelism: it is one process with at
// most two threads running Go code, whatever the machine.
func loadgenProcs() int { return min(runtime.NumCPU(), 2) }
