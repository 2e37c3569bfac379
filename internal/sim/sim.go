// Package sim is the deterministic discrete-time simulator the benchmark
// harness runs on. It owns the network state — placement, links, routing
// tree, link layer, energy ledger and traffic counters — and exposes the
// communication primitives the top-k operators use:
//
//   - SendUp: one hop from a node to its tree parent (view updates);
//   - SendDown: one hop from a parent to a child (beacons, L_sink multicast);
//   - RouteToSink: multihop relay without in-network merging (the flat
//     communication pattern of TPUT and of the centralized baseline);
//   - BroadcastDown: pre-order sweep delivering a per-child payload.
//
// Every transmission is charged to the energy ledger and recorded in the
// radio counter, so after a run the System Panel simply reads this state.
// Time is epoch-structured as in TAG: a downstream beacon sweep followed by
// an upstream data sweep in post-order (children strictly before parents).
//
// A Network is safe for concurrent use: every exported method takes its
// lock, so any number of sweeps, floods and relays may be in flight at once
// (the engine's scheduler acquires several query groups of one epoch
// concurrently when the Parallel bound is above one).
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"kspot/internal/energy"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topo"
)

// Network bundles the simulated deployment. Its per-node state — the
// downed marks, the budgets, the ledger's accounts and the counter's
// per-node bytes — lives in tables indexed by node id and sized, when the
// network is built, by the placement's largest id: node ids are small dense
// integers, and every transmission of every sweep reads and writes several
// of them. An id beyond the tables is no node of this deployment: it reads
// as alive and without a budget, it cannot be downed, and traffic charged
// to it grows the ledger and the counter rather than writing out of range.
//
// The exported state fields are the network's own once traffic flows: read
// them through Locked (or after every caller has returned), never beside a
// method call in flight on another goroutine.
type Network struct {
	Placement *topo.Placement
	Links     *topo.Links
	Tree      *topo.Tree
	Link      *radio.Link
	Energy    energy.Model
	Ledger    *energy.Ledger
	Counter   *radio.Counter
	// Epochs counts the epochs charged idle (ChargeIdleEpoch) since the
	// network was built or Reset: the epochs its counters cover.
	Epochs int

	// Budgets, when non-nil, gives each sensor a finite energy budget,
	// indexed by node id; dead nodes stop transmitting and receiving. The
	// sink's slot (and any id no sensor holds) is the zero Budget: unlimited.
	Budgets []energy.Budget

	// mu guards every field of the network — the link's fault model, the
	// counters, the ledger, the budgets, the downed marks, the churn
	// schedule, the tree's lazily built index and the frame free list.
	// Exported methods take it; their unexported forms assume it is held.
	mu sync.Mutex

	// downed marks, by node id, the nodes administratively killed by fault
	// injection (internal/faults churn). A downed node is dead exactly like
	// a budget-exhausted one; revival clears the mark but never resurrects
	// a node whose energy budget ran out.
	downed []bool

	// churn is the armed churn schedule, sorted by epoch, and churned the
	// number of its events already fired (see SetChurn).
	churn   []ChurnEvent
	churned int

	// parallel bounds the worker count of the level-synchronous Sweep;
	// values <= 1 select the exact legacy sequential walk. See SetParallel.
	parallel int

	// frames is the free list of sweep frames: a sweep takes one (or makes
	// one) and hands it back, so the list grows to the peak number of sweeps
	// in flight and steady-state sweeps allocate no per-node scratch.
	frames []*sweepFrame
}

// sweepFrame is the scratch one sweep runs on: every node's view
// accumulator, pruned view and encode buffer, laid out by the tree's
// LevelIndex so the hot path indexes a slice instead of hashing node ids,
// and kept between sweeps so that steady-state sweeps allocate nothing. A
// frame serves one sweep at a time; the zero value is ready to use.
type sweepFrame struct {
	idx   *topo.LevelIndex
	nodes []frameNode
	buf   []byte // the sequential walk's one encode buffer
}

// frameNode is one node's slot in a frame. During a level's compute phase
// each slot is touched by exactly one worker; the commit phase drains the
// level's slots in ascending id order.
type frameNode struct {
	acc  *model.View // the node's reading plus its children's committed views
	cut  *model.View // the node's own view for prune to fill
	out  *model.View // pruned view to transmit: acc, cut, or nil
	enc  []byte      // out encoded; reused across sweeps
	send bool        // out is non-empty, so a transmission is due
}

// reset lays the frame out for the tree and empties every accumulator:
// children merge into their parent's accumulator before its turn comes.
func (f *sweepFrame) reset(idx *topo.LevelIndex) {
	if f.idx != idx {
		nodes := make([]frameNode, len(idx.Parent))
		copy(nodes, f.nodes) // views and buffers are interchangeable: keep the grown ones
		f.idx, f.nodes = idx, nodes
	}
	for i := range f.nodes {
		fn := &f.nodes[i]
		if fn.acc != nil {
			fn.acc.Reset()
		} else {
			fn.acc, fn.cut = model.NewView(), model.NewView()
		}
	}
}

// Options configures New.
type Options struct {
	Radio       radio.Config
	EnergyModel energy.Model
	// BudgetJoules, when positive, assigns every sensor node a finite
	// budget (the sink is mains-powered, as the MIB520 gateway is).
	BudgetJoules float64
	// Parallel bounds the worker count of the level-synchronous Sweep.
	// 0 or 1 runs the exact legacy sequential walk; N > 1 computes each
	// tree level with up to N workers. A single sweep's results are
	// byte-identical for every value (see SetParallel).
	Parallel int
}

// DefaultOptions returns a lossless MICA2 network with unlimited budgets.
func DefaultOptions() Options {
	return Options{Radio: radio.DefaultConfig(), EnergyModel: energy.MICA2()}
}

// New builds a network over the placement: disk links with the given radius
// and a first-heard BFS tree.
func New(p *topo.Placement, radius float64, opts Options) (*Network, error) {
	links := topo.DiskLinks(p, radius)
	tree, err := topo.BuildTree(p, links)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return FromTree(p, links, tree, opts), nil
}

// FromTree builds a network over an explicit topology (used by the Figure 1
// fixture, whose tree the paper draws literally).
//
// This is where a deployment's topology stops changing, so it is where the
// node-indexed tables are sized and the placement's roster and the tree's
// parent table are built — once, not per epoch.
func FromTree(p *topo.Placement, links *topo.Links, tree *topo.Tree, opts Options) *Network {
	size := 0
	if ids := p.Nodes(); len(ids) > 0 {
		size = int(ids[len(ids)-1]) + 1
	}
	n := &Network{
		Placement: p,
		Links:     links,
		Tree:      tree,
		Link:      radio.NewLink(opts.Radio),
		Energy:    opts.EnergyModel,
		Ledger:    energy.NewLedger(size),
		Counter:   radio.NewCounter(size),
		downed:    make([]bool, size),
		parallel:  opts.Parallel,
	}
	if opts.BudgetJoules > 0 {
		n.Budgets = make([]energy.Budget, size)
		for _, id := range p.SensorNodes() {
			n.Budgets[id] = *energy.NewBudget(opts.BudgetJoules)
		}
	}
	tree.ParentOf(tree.Root) // builds the tree's parent table
	return n
}

// Topology returns the node placement. Together with Routing, Sweep and
// the send primitives it makes *Network satisfy engine.Transport — the one
// substrate of the engine layer.
func (n *Network) Topology() *topo.Placement { return n.Placement }

// Routing returns the sink-rooted routing tree.
func (n *Network) Routing() *topo.Tree { return n.Tree }

// Locked runs fn holding the network's lock: how a reader takes a
// consistent look at the exported state (counters, ledger, budgets) while
// other goroutines use the network. fn must not call the network's methods.
func (n *Network) Locked(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn()
}

// Alive reports whether a node still has energy and has not been struck
// down by fault injection. The sink is mains-powered and always alive: its
// slot is never downed and holds the zero (unlimited) Budget. An id beyond
// the tables reads the same way.
func (n *Network) Alive(id model.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive(id)
}

func (n *Network) alive(id model.NodeID) bool {
	i := int(id)
	if i < len(n.downed) && n.downed[i] {
		return false
	}
	return i >= len(n.Budgets) || !n.Budgets[i].Dead()
}

// setNodeDown administratively kills or revives a node — what a churn
// event does when it fires. It rides the same Alive pathway as energy
// death: a downed node neither transmits, receives, nor senses. The sink
// cannot be downed, nor can an id beyond the deployment's largest (no such
// node exists), and reviving a node whose energy budget is exhausted leaves
// it dead.
func (n *Network) setNodeDown(id model.NodeID, down bool) {
	if id == model.Sink || int(id) >= len(n.downed) {
		return
	}
	n.downed[id] = down
}

// SetFault installs (or clears) a deterministic link-layer fault model —
// the loss/duplication/delay primitive of the fault-injection layer. Must
// be called before traffic flows.
func (n *Network) SetFault(m radio.FaultModel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Link.SetFault(m)
}

// ChurnEvent schedules one node's administrative death or revival. The
// event fires at the first transmission of its epoch: the node's epoch-e
// reading may still be sensed, but nothing of epoch e (or later) is
// transmitted or received. Revival rides the same pathway; a node whose
// energy budget is exhausted stays dead regardless.
type ChurnEvent struct {
	Node  model.NodeID `json:"node"`
	Epoch model.Epoch  `json:"epoch"`
	Down  bool         `json:"down"`
}

// SetChurn arms (or, with no events, clears) a churn schedule — the
// scheduled-death primitive of the fault-injection layer. Each event fires
// on entry to the first transmitting primitive of its epoch (SendUp,
// SendDown, BroadcastDown, RouteToSink, RouteFromSink, or a sweep before its
// first commit), never on sensing, so whichever acquisition of the epoch
// transmits first, every one sees it at the same point of the epoch. Must
// be called before traffic flows.
func (n *Network) SetChurn(events []ChurnEvent) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.churn = slices.Clone(events)
	slices.SortStableFunc(n.churn, func(a, b ChurnEvent) int { return cmp.Compare(a.Epoch, b.Epoch) })
	n.churned = 0
}

// advance fires every armed churn event scheduled at or before epoch e,
// each exactly once: replaying an earlier epoch re-fires nothing.
func (n *Network) advance(e model.Epoch) {
	for n.churned < len(n.churn) && n.churn[n.churned].Epoch <= e {
		ev := n.churn[n.churned]
		n.churned++
		n.setNodeDown(ev.Node, ev.Down)
	}
}

// SetParallel bounds the worker count of the level-synchronous Sweep, and
// with it the concurrency of a deployment built over the network (see
// engine.Deployment). workers <= 1 selects the exact legacy sequential
// walk; workers > 1 fans the per-level merge/prune/encode work over a
// bounded pool while the transmissions and parent merges still commit in
// the sequential post-order position, so a single sweep's answers,
// messages, frames, bytes, loss draws and energy ledger are byte-identical
// for every value. Set it before traffic flows.
func (n *Network) SetParallel(workers int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parallel = workers
}

// Parallel reports the configured sweep worker bound (0 and 1 both mean
// sequential).
func (n *Network) Parallel() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parallel
}

// charge draws energy from a live node: off its budget, when it has one,
// and onto its ledger account. The sink draws mains power and is never
// charged.
func (n *Network) charge(id model.NodeID, microjoules float64) {
	if id == model.Sink {
		return
	}
	if int(id) < len(n.Budgets) {
		n.Budgets[id].Spend(microjoules)
	}
	n.Ledger.Charge(int(id), microjoules)
}

// RestoreEnergy resumes a node's consumption from a checkpoint: its ledger
// account and, when it has one, its spent budget. Both count the same
// picojoules, so both resume exactly where the run that never stopped
// stands, and the node dies at the same epoch.
func (n *Network) RestoreEnergy(id model.NodeID, microjoules float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Ledger.Set(int(id), microjoules)
	if int(id) < len(n.Budgets) {
		n.Budgets[id].SetUsed(microjoules)
	}
}

// transmit performs one single-hop transmission with full accounting.
func (n *Network) transmit(msg radio.Message) bool {
	if !n.alive(msg.From) {
		return false
	}
	acc := n.Link.Transmit(msg)
	n.Counter.Record(msg, acc)
	if acc.Frames > 0 {
		n.charge(msg.From, float64(acc.Frames)*n.Energy.TxPerPacket+n.Energy.TxPerByte*float64(acc.TxBytes))
	}
	receiverAlive := n.alive(msg.To)
	if acc.RxFrames > 0 && receiverAlive {
		n.charge(msg.To, float64(acc.RxFrames)*n.Energy.RxPerPacket+n.Energy.RxPerByte*float64(acc.RxBytes))
	}
	// A node that dies receiving this very message still received it: the
	// budget check, like the hardware brown-out, happens afterwards.
	return acc.Delivered && receiverAlive
}

// SendUp transmits a payload from a node to its tree parent. Returns false
// if the node is the root, is dead, or the link loses the message.
func (n *Network) SendUp(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advance(e)
	return n.sendUp(from, kind, e, payload)
}

// sendUp is SendUp without the lock and the churn check, for a sweep's
// commits: the sweep checks once, before its first.
func (n *Network) sendUp(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	parent, ok := n.Tree.ParentOf(from)
	if !ok {
		return false
	}
	return n.transmit(radio.Message{From: from, To: parent, Kind: kind, Epoch: e, Payload: payload})
}

// SendDown transmits a payload from a node to one of its children.
func (n *Network) SendDown(from, to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advance(e)
	return n.transmit(radio.Message{From: from, To: to, Kind: kind, Epoch: e, Payload: payload})
}

// BroadcastDown delivers a payload from the sink to every node via a
// pre-order sweep: each parent forwards to each child (TinyOS has no
// reliable broadcast; TAG re-broadcasts per hop and we charge per child
// link, the conservative model TinyDB uses for tree maintenance).
// payloadFor lets the caller shrink or specialize the payload per child;
// passing nil sends an empty beacon. Returns the set of nodes reached.
// payloadFor runs under the network's lock and must not call back into it.
func (n *Network) BroadcastDown(kind radio.MsgKind, e model.Epoch, payloadFor func(child model.NodeID) []byte) map[model.NodeID]bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advance(e)
	reached := map[model.NodeID]bool{model.Sink: true}
	for _, parent := range n.Tree.PreOrder() {
		if !reached[parent] {
			continue // parent never got the beacon; subtree dark this epoch
		}
		for _, child := range n.Tree.Children[parent] {
			var pl []byte
			if payloadFor != nil {
				pl = payloadFor(child)
			}
			if n.transmit(radio.Message{From: parent, To: child, Kind: kind, Epoch: e, Payload: pl}) {
				reached[child] = true
			}
		}
	}
	return reached
}

// RouteToSink relays a payload from a node to the sink hop by hop WITHOUT
// merging — every intermediate node retransmits the same bytes. This is the
// communication pattern of flat algorithms (TPUT, centralized shipping) and
// is what in-network aggregation saves over. Returns true if the payload
// reached the sink.
func (n *Network) RouteToSink(from model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advance(e)
	cur := from
	for cur != model.Sink {
		parent, ok := n.Tree.ParentOf(cur)
		if !ok {
			return false
		}
		if !n.transmit(radio.Message{From: cur, To: parent, Kind: kind, Epoch: e, Payload: payload}) {
			return false
		}
		cur = parent
	}
	return true
}

// RouteFromSink relays a payload from the sink to one node hop by hop down
// the tree (the unicast pattern of filter updates and probes in
// FILA-style protocols). Returns true if the payload arrived.
func (n *Network) RouteFromSink(to model.NodeID, kind radio.MsgKind, e model.Epoch, payload []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advance(e)
	path := n.Tree.PathToRoot(to) // to ... sink
	if len(path) == 0 || path[len(path)-1] != model.Sink {
		return false
	}
	for i := len(path) - 1; i > 0; i-- {
		if !n.transmit(radio.Message{From: path[i], To: path[i-1], Kind: kind, Epoch: e, Payload: payload}) {
			return false
		}
	}
	return true
}

// Sweep runs one TAG-style leaf-to-root acquisition sweep: in post-order,
// every node merges its own reading (if any) with the views received from
// its children, applies prune to obtain the view it will transmit, and
// sends the encoded result one hop up. Nodes whose pruned view is empty
// suppress their packet entirely — that suppression is where in-network
// top-k saves messages, not just bytes.
//
// prune receives the transmitting node, its full local view V_i and an empty
// view the node owns in the sweep's frame, and returns the view to transmit
// V'_i: the input unchanged, the out view filled with a subset, or nil for
// "send nothing". Both views are the frame's; prune must not retain either.
// prune must not call back into the network: the sequential walk runs it
// under the lock.
//
// The sweep runs on a frame from the network's free list. At Parallel() <=
// 1 it is the sequential walk, under the lock from start to end — the
// reference every other form must match. Above 1 it is the
// level-synchronous walk (see sweepLevels), which holds the lock only to
// commit, so other sweeps and primitives interleave with it level by level.
// Either way the sink's merged view is returned as a copy: it belongs to
// the caller, whatever sweeps run later.
func (n *Network) Sweep(e model.Epoch, kind radio.MsgKind,
	readings map[model.NodeID]model.Reading,
	prune func(node model.NodeID, v, out *model.View) *model.View) *model.View {

	n.mu.Lock()
	var f *sweepFrame
	if last := len(n.frames) - 1; last >= 0 {
		f, n.frames = n.frames[last], n.frames[:last]
	} else {
		f = new(sweepFrame)
	}
	// A panicking prune unwinds past the hand-back: its frame is dropped.
	if n.parallel > 1 {
		n.mu.Unlock()
		v := n.sweepLevels(f, e, kind, readings, prune).Clone()
		n.mu.Lock()
		n.frames = append(n.frames, f)
		n.mu.Unlock()
		return v
	}
	defer n.mu.Unlock()
	v := n.sweepSequential(f, e, kind, readings, prune).Clone()
	n.frames = append(n.frames, f)
	return v
}

// sweepSequential is the sequential walk: each node computes and commits
// in one step, in post-order. The caller holds the lock.
func (n *Network) sweepSequential(f *sweepFrame, e model.Epoch, kind radio.MsgKind,
	readings map[model.NodeID]model.Reading,
	prune func(node model.NodeID, v, out *model.View) *model.View) *model.View {

	n.advance(e)
	f.reset(n.Tree.LevelIndex())
	s := sweep{n: n, f: f, e: e, kind: kind, readings: readings, prune: prune}
	for d := len(f.idx.Levels) - 1; d >= 1; d-- {
		base := f.idx.Start[d]
		for j, node := range f.idx.Levels[d] {
			f.buf = s.compute(base+j, node, f.buf)
			s.commit(base+j, node, f.buf)
		}
	}
	return s.root()
}

// sweepLevels is the level-synchronous form of the sweep. Per tree level,
// deepest first, it runs two phases:
//
//   - compute: up to Parallel() workers steal nodes off the level and, for
//     each, merge the node's reading into its accumulator, apply prune and
//     encode the resulting view into the node's slot. No two workers touch
//     the same node, and accumulators of shallower levels are only written
//     during commits, so the phase is data-race free.
//   - commit: a single goroutine replays the transmissions and parent-
//     accumulator merges in ascending node id — exactly the position the
//     sequential post-order walk would run them in, since PostOrder is
//     depth-descending with ids ascending within a level.
//
// All order-sensitive state (energy charges, counters, a fault model's
// per-link memo) is touched only during commits, and a level's
// transmissions can only charge that level and its parents — never a
// deeper node — so aliveness at each commit matches the sequential run.
// The result is byte-identical to the sequential sweep for every worker
// count.
//
// The compute phases touch nothing of the network but the frame. The lock
// is held around every other access — the armed churn schedule, the tree's
// lazily built index and each level's commit phase — which is what lets
// several sweeps be in flight over one network, each on its own frame. The
// returned sink view lives in the frame: valid until the frame's next sweep.
func (n *Network) sweepLevels(f *sweepFrame, e model.Epoch, kind radio.MsgKind,
	readings map[model.NodeID]model.Reading,
	prune func(node model.NodeID, v, out *model.View) *model.View) *model.View {

	n.mu.Lock()
	n.advance(e)
	idx := n.Tree.LevelIndex()
	spares := n.parallel - 1
	n.mu.Unlock()
	f.reset(idx)
	s := &sweep{n: n, f: f, e: e, kind: kind, readings: readings, prune: prune}
	defer s.stopSpares()
	for d := len(idx.Levels) - 1; d >= 1; d-- {
		s.computeLevel(idx.Levels[d], idx.Start[d], spares)
		s.commitLevel()
	}
	return s.root()
}

// sweep is one Sweep call: its arguments, and for the level-synchronous
// form the level in flight and the worker pool computing it.
type sweep struct {
	n        *Network
	f        *sweepFrame
	e        model.Epoch
	kind     radio.MsgKind
	readings map[model.NodeID]model.Reading
	prune    func(node model.NodeID, v, out *model.View) *model.View

	nodes []model.NodeID // the level in flight
	base  int            // position of nodes[0]
	next  atomic.Int64   // steal cursor into nodes

	// Spare workers park on work between levels (one token per worker per
	// level) and exit when it closes. They start with the first level wide
	// enough to share; the sweeping goroutine steals too, so Parallel() is
	// the total compute concurrency.
	work     chan struct{}
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// A node's compute costs well under a microsecond; waking a parked worker
// costs tens of them on a virtualized host. So workers take nodes off a
// level stealChunk at a time, and a level wakes one spare per shareNodes
// nodes it holds beyond the first — narrow levels (the funnel near the root,
// all of a small deployment) stay on the caller.
const (
	stealChunk = 16
	shareNodes = 256
)

// compute is the local half of a node's turn: fold its reading into its
// accumulator, prune, and encode the view to transmit into enc, which is
// returned (possibly grown).
func (s *sweep) compute(pos int, node model.NodeID, enc []byte) []byte {
	fn := &s.f.nodes[pos]
	if r, ok := s.readings[node]; ok {
		fn.acc.Add(r)
	}
	fn.out = fn.acc
	if s.prune != nil {
		fn.cut.Reset()
		fn.out = s.prune(node, fn.acc, fn.cut)
	}
	fn.send = fn.out != nil && fn.out.Len() > 0
	if fn.send {
		enc = model.AppendView(enc[:0], fn.out)
	}
	return enc
}

// commit is the order-sensitive half: the transmission with all its
// accounting and, when it is delivered, the merge into the parent. The
// caller holds the lock.
func (s *sweep) commit(pos int, node model.NodeID, enc []byte) {
	fn := &s.f.nodes[pos]
	if fn.send && s.n.alive(node) && s.n.sendUp(node, s.kind, s.e, enc) {
		s.f.nodes[s.f.idx.Parent[pos]].acc.MergeView(fn.out)
	}
	fn.out = nil
}

// root finishes the sweep at level 0, the root alone: merge its own reading
// and hand the merged view to the caller.
func (s *sweep) root() *model.View {
	levels := s.f.idx.Levels
	if len(levels) == 0 || len(levels[0]) != 1 || levels[0][0] != s.n.Tree.Root {
		panic("sim: level index does not start at the root")
	}
	v := s.f.nodes[0].acc
	if r, ok := s.readings[s.n.Tree.Root]; ok {
		v.Add(r)
	}
	return v
}

// computeLevel runs a level's compute phase on up to spares workers beside
// the caller. A panic in any worker (a prune callback's) is re-raised here.
func (s *sweep) computeLevel(nodes []model.NodeID, base, spares int) {
	s.nodes, s.base = nodes, base
	s.next.Store(0)
	fan := (len(nodes) - 1) / shareNodes
	if fan > spares {
		fan = spares
	}
	if fan > 0 {
		if s.work == nil {
			s.work = make(chan struct{})
			for w := 0; w < spares; w++ {
				go s.spare()
			}
		}
		s.wg.Add(fan)
		for w := 0; w < fan; w++ {
			s.work <- struct{}{}
		}
	}
	s.steal()
	s.wg.Wait()
	if s.panicked {
		panic(s.panicVal)
	}
}

func (s *sweep) spare() {
	for range s.work {
		s.steal()
		s.wg.Done()
	}
}

func (s *sweep) stopSpares() {
	if s.work != nil {
		close(s.work)
	}
}

// steal computes chunks of the level in flight until none are left.
func (s *sweep) steal() {
	defer func() {
		if r := recover(); r != nil {
			s.panicMu.Lock()
			if !s.panicked {
				s.panicked, s.panicVal = true, r
			}
			s.panicMu.Unlock()
		}
	}()
	for {
		hi := int(s.next.Add(stealChunk))
		lo := hi - stealChunk
		if lo >= len(s.nodes) {
			return
		}
		if hi > len(s.nodes) {
			hi = len(s.nodes)
		}
		for j := lo; j < hi; j++ {
			fn := &s.f.nodes[s.base+j]
			fn.enc = s.compute(s.base+j, s.nodes[j], fn.enc)
		}
	}
}

// commitLevel replays the level's transmissions in ascending id, which is
// their post-order position, under the network's lock.
func (s *sweep) commitLevel() {
	s.n.mu.Lock()
	defer s.n.mu.Unlock()
	for j, node := range s.nodes {
		s.commit(s.base+j, node, s.f.nodes[s.base+j].enc)
	}
}

// AliveSensors returns the sensors alive now, ascending: the nodes an epoch
// samples. While every sensor is alive that is the placement's own roster,
// shared — callers must not modify the slice.
func (n *Network) AliveSensors() []model.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	roster := n.Placement.SensorNodes()
	for i, id := range roster {
		if n.alive(id) {
			continue
		}
		alive := append(make([]model.NodeID, 0, len(roster)-1), roster[:i]...)
		for _, id := range roster[i+1:] {
			if n.alive(id) {
				alive = append(alive, id)
			}
		}
		return alive
	}
	return roster
}

// ChargeSense charges one sensing operation to every node of readings that
// is alive, and deletes the others from it: a dead node sensed nothing.
func (n *Network) ChargeSense(readings map[model.NodeID]model.Reading) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range readings {
		if n.alive(id) {
			n.charge(id, n.Energy.SenseCost)
		} else {
			delete(readings, id)
		}
	}
}

// ChargeIdleEpoch charges every live sensor the per-epoch idle baseline
// and counts the epoch.
func (n *Network) ChargeIdleEpoch() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Epochs++
	for _, id := range n.Placement.SensorNodes() {
		if n.alive(id) {
			n.charge(id, n.Energy.IdlePerEpoch)
		}
	}
}

// Reset clears traffic and energy accounting (budgets are preserved) so a
// caller can measure a steady-state window separately from a warm-up.
func (n *Network) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Ledger = energy.NewLedger(len(n.downed))
	n.Counter = radio.NewCounter(len(n.downed))
	n.Epochs = 0
}

// Snapshot copies the current counters — used to compute per-phase deltas.
type Snapshot struct {
	Messages int
	Frames   int
	TxBytes  int
	Drops    int
	EnergyUJ float64
}

// Snap captures current totals.
func (n *Network) Snap() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Snapshot{
		Messages: n.Counter.TotalMessages(),
		Frames:   n.Counter.TotalFrames(),
		TxBytes:  n.Counter.TotalTxBytes(),
		Drops:    n.Counter.Drops,
		EnergyUJ: n.Ledger.Total(),
	}
}

// Delta returns the difference between the current totals and an earlier
// snapshot.
func (n *Network) Delta(s Snapshot) Snapshot {
	now := n.Snap()
	return Snapshot{
		Messages: now.Messages - s.Messages,
		Frames:   now.Frames - s.Frames,
		TxBytes:  now.TxBytes - s.TxBytes,
		Drops:    now.Drops - s.Drops,
		EnergyUJ: now.EnergyUJ - s.EnergyUJ,
	}
}
