package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kspot/internal/energy"
	"kspot/internal/model"
	"kspot/internal/radio"
	"kspot/internal/topo"
)

// refNetwork is the map-keyed accounting the node-indexed tables replaced,
// kept as the reference the differential test compares against: every
// per-node and per-kind fact hashed by its key, the ledger total summed in
// sorted key order.
type refNetwork struct {
	link    *radio.Link
	em      energy.Model
	sensors []model.NodeID
	maxID   model.NodeID
	downed  map[model.NodeID]bool
	budgets map[model.NodeID]*energy.Budget
	ledger  map[int]float64

	messages, frames, txBytes, rxBytes map[radio.MsgKind]int
	perNodeTx, perNodeRx               map[model.NodeID]int
	drops                              int
}

func (r *refNetwork) reset() {
	r.ledger = map[int]float64{}
	r.messages, r.frames = map[radio.MsgKind]int{}, map[radio.MsgKind]int{}
	r.txBytes, r.rxBytes = map[radio.MsgKind]int{}, map[radio.MsgKind]int{}
	r.perNodeTx, r.perNodeRx = map[model.NodeID]int{}, map[model.NodeID]int{}
	r.drops = 0
}

func (r *refNetwork) alive(id model.NodeID) bool {
	if id == model.Sink {
		return true
	}
	if r.downed[id] {
		return false
	}
	b, ok := r.budgets[id]
	return !ok || !b.Dead()
}

func (r *refNetwork) charge(id model.NodeID, uj float64) {
	if id == model.Sink || !r.alive(id) {
		return
	}
	if b, ok := r.budgets[id]; ok {
		b.Spend(uj)
	}
	r.ledger[int(id)] += uj
}

func (r *refNetwork) transmit(msg radio.Message) bool {
	if !r.alive(msg.From) {
		return false
	}
	acc := r.link.Transmit(msg)
	r.frames[msg.Kind] += acc.Frames
	r.txBytes[msg.Kind] += acc.TxBytes
	r.rxBytes[msg.Kind] += acc.RxBytes
	r.drops += acc.Drops
	r.perNodeTx[msg.From] += acc.TxBytes
	r.perNodeRx[msg.To] += acc.RxBytes
	if acc.Delivered {
		r.messages[msg.Kind]++
	}
	r.charge(msg.From, float64(acc.Frames)*r.em.TxPerPacket+r.em.TxPerByte*float64(acc.TxBytes))
	receiverAlive := r.alive(msg.To)
	if acc.RxFrames > 0 {
		r.charge(msg.To, float64(acc.RxFrames)*r.em.RxPerPacket+r.em.RxPerByte*float64(acc.RxBytes))
	}
	return acc.Delivered && receiverAlive
}

func (r *refNetwork) total() float64 {
	var t float64
	for _, id := range r.nodes() {
		t += r.ledger[id]
	}
	return t
}

func (r *refNetwork) nodes() []int {
	ids := make([]int, 0, len(r.ledger))
	for id := range r.ledger {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func sum(m map[radio.MsgKind]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// TestNodeTablesMatchMapReference drives the network and the map-keyed
// reference through one seeded random history — transmissions of all six
// kinds between arbitrary ids, idle and sense commits, churn flips, budget
// deaths, checkpoint restores, accounting resets — and compares every
// observable after every step, for every id in a window that holds the
// sink, ids the placement skips and ids above its largest.
func TestNodeTablesMatchMapReference(t *testing.T) {
	const window = 14 // ids 0..13; the placement's largest is 9
	for _, budget := range []float64{0, 4e-3} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("budget=%v/seed=%d", budget, seed), func(t *testing.T) {
				p := topo.NewPlacement()
				for _, id := range []model.NodeID{0, 1, 2, 3, 5, 6, 9} { // 4, 7, 8 absent
					p.Positions[id] = topo.Point{X: float64(id)}
					if id != model.Sink {
						p.Groups[id] = model.GroupID(id%2 + 1)
					}
				}
				opts := DefaultOptions()
				opts.BudgetJoules = budget
				n, err := New(p, 100, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refNetwork{
					link: radio.NewLink(opts.Radio), em: opts.EnergyModel,
					sensors: []model.NodeID{1, 2, 3, 5, 6, 9}, maxID: 9,
					downed: map[model.NodeID]bool{}, budgets: map[model.NodeID]*energy.Budget{},
				}
				ref.reset()
				if budget > 0 {
					for _, id := range ref.sensors {
						ref.budgets[id] = energy.NewBudget(budget)
					}
				}

				rng := rand.New(rand.NewSource(seed))
				anyID := func() model.NodeID { return model.NodeID(rng.Intn(window)) }
				for step := 0; step < 600; step++ {
					switch op := rng.Intn(20); {
					case op < 10: // a transmission, any kind, any two ids
						msg := radio.Message{From: anyID(), To: anyID(), Kind: radio.MsgKind(rng.Intn(6)),
							Epoch: model.Epoch(step), Payload: make([]byte, rng.Intn(70))}
						got := n.SendDown(msg.From, msg.To, msg.Kind, msg.Epoch, msg.Payload)
						if want := ref.transmit(msg); got != want {
							t.Fatalf("step %d: %+v delivered=%v, reference %v", step, msg, got, want)
						}
					case op < 13: // an epoch's sense commit
						n.ChargeIdleEpoch()
						for _, id := range ref.sensors {
							ref.charge(id, ref.em.IdlePerEpoch)
						}
						readings, want := map[model.NodeID]model.Reading{}, map[model.NodeID]model.Reading{}
						for _, id := range ref.sensors {
							if rng.Intn(3) == 0 {
								continue // not offered this epoch
							}
							readings[id] = model.Reading{Node: id}
							if ref.alive(id) {
								want[id] = readings[id]
								ref.charge(id, ref.em.SenseCost)
							}
						}
						n.ChargeSense(readings)
						if !reflect.DeepEqual(readings, want) {
							t.Fatalf("step %d: sense commit kept %v, reference %v", step, readings, want)
						}
					case op < 16: // churn, on any id of the window
						id, down := anyID(), rng.Intn(2) == 0
						n.SetNodeDown(id, down)
						if id != model.Sink && id <= ref.maxID { // beyond the largest id there is no node to down
							if down {
								ref.downed[id] = true
							} else {
								delete(ref.downed, id)
							}
						}
					case op < 17: // a budget death
						if id := ref.sensors[rng.Intn(len(ref.sensors))]; budget > 0 {
							n.Budgets[id].Spend(1e12)
							ref.budgets[id].Spend(1e12)
						}
					case op < 19: // a checkpoint restore, any id
						id, uj := anyID(), float64(rng.Intn(3000))/7
						n.RestoreEnergy(id, uj)
						ref.ledger[int(id)] = uj
						if b, ok := ref.budgets[id]; ok {
							b.Used = uj
						}
					default:
						n.Reset()
						ref.reset()
					}
					compareToReference(t, step, n, ref, window)
				}
			})
		}
	}
}

func compareToReference(t *testing.T, step int, n *Network, ref *refNetwork, window int) {
	t.Helper()
	want := Snapshot{Messages: sum(ref.messages), Frames: sum(ref.frames), TxBytes: sum(ref.txBytes), Drops: ref.drops, EnergyUJ: ref.total()}
	if got := n.Snap(); got != want {
		t.Fatalf("step %d: Snap %+v, reference %+v", step, got, want)
	}
	var max float64
	for _, v := range ref.ledger {
		if v > max {
			max = v
		}
	}
	mean := 0.0
	if len(ref.ledger) > 0 {
		mean = ref.total() / float64(len(ref.ledger))
	}
	if n.Ledger.Max() != max || n.Ledger.Mean() != mean {
		t.Fatalf("step %d: ledger max/mean %v/%v, reference %v/%v", step, n.Ledger.Max(), n.Ledger.Mean(), max, mean)
	}
	if got := n.Ledger.Nodes(); !reflect.DeepEqual(got, ref.nodes()) {
		t.Fatalf("step %d: ledger nodes %v, reference %v", step, got, ref.nodes())
	}
	for k := radio.KindData; k <= radio.KindOther; k++ {
		if n.Counter.Messages[k] != ref.messages[k] || n.Counter.Frames[k] != ref.frames[k] ||
			n.Counter.TxBytes[k] != ref.txBytes[k] || n.Counter.RxBytes[k] != ref.rxBytes[k] {
			t.Fatalf("step %d: kind %v counters differ from the reference", step, k)
		}
	}
	if n.Counter.TotalRxBytes() != sum(ref.rxBytes) {
		t.Fatalf("step %d: rx bytes %d, reference %d", step, n.Counter.TotalRxBytes(), sum(ref.rxBytes))
	}
	perNode := func(s []int, id int) int {
		if id < len(s) {
			return s[id]
		}
		return 0
	}
	for id := 0; id < window; id++ {
		nid := model.NodeID(id)
		if got, want := n.Alive(nid), ref.alive(nid); got != want {
			t.Fatalf("step %d: Alive(%d) = %v, reference %v", step, id, got, want)
		}
		if got, want := n.Ledger.Node(id), ref.ledger[id]; got != want {
			t.Fatalf("step %d: ledger[%d] = %v, reference %v", step, id, got, want)
		}
		if perNode(n.Counter.PerNodeTx, id) != ref.perNodeTx[nid] || perNode(n.Counter.PerNodeRx, id) != ref.perNodeRx[nid] {
			t.Fatalf("step %d: per-node bytes of %d differ from the reference", step, id)
		}
	}
}
