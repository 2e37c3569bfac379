// Package radio models the link layer of a MICA2-class mote: TOS_Msg-style
// framing with a small fixed header and a bounded payload, fragmentation of
// larger application records across multiple frames, lossy links with
// retransmission, and per-packet/per-byte accounting hooks.
//
// The byte and message counts this package reports are the raw material of
// the paper's System Panel: KSpot's savings over TAG come precisely from
// needing fewer and smaller frames per epoch.
package radio

import (
	"fmt"

	"kspot/internal/model"
)

// MsgKind tags the application-level purpose of a frame, used for phase
// accounting (e.g. TJA reports bytes per LB/HJ/CL phase).
type MsgKind uint8

const (
	KindData   MsgKind = iota // upstream view / tuple payloads
	KindBeacon                // downstream epoch beacon (query, γ, top-k set)
	KindLB                    // TJA lower-bound phase
	KindHJ                    // TJA hierarchical-join phase
	KindCL                    // TJA clean-up phase
	KindCtrl                  // misc control (tree building, acks)
)

func (k MsgKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindBeacon:
		return "beacon"
	case KindLB:
		return "lb"
	case KindHJ:
		return "hj"
	case KindCL:
		return "cl"
	case KindCtrl:
		return "ctrl"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame geometry, after TOS_Msg on TinyOS 1.x as deployed on MICA2: a 7-byte
// header (dest, AM type, group, length, CRC) and a default 29-byte payload.
const (
	DefaultHeaderSize = 7
	DefaultPayload    = 29
)

// FrameFate is the outcome the fault model assigns to one frame attempt.
type FrameFate uint8

const (
	// FrameOK: the frame is received within its receive window.
	FrameOK FrameFate = iota
	// FrameLost: the frame never arrives (collision, fade); the receiver
	// spends nothing, the AM layer retries.
	FrameLost
	// FrameDelayed: the frame arrives after its receive window closed. The
	// receiver pays to hear it but the AM layer discards it and retries —
	// a loss that also costs receive energy.
	FrameDelayed
	// FrameDuplicated: the frame is received, but a spurious retransmission
	// (e.g. a lost acknowledgement) puts one extra copy on air, doubling
	// this frame's transmit and receive cost.
	FrameDuplicated
)

// FaultModel decides the fate of individual frame attempts. Implementations
// MUST be deterministic functions of the message identity (sender, receiver,
// kind, epoch, payload, fragment, attempt) and their own seed — never of
// call order — so that concurrent acquisitions replay the exact fault
// pattern of the sequential walk. They must also be safe for concurrent use.
// internal/faults provides the standard models.
type FaultModel interface {
	Frame(msg Message, frag, attempt int) FrameFate
}

// Config describes the link layer.
type Config struct {
	HeaderSize int // bytes of per-frame header
	Payload    int // max payload bytes per frame
	MaxRetries int // link-layer retransmissions after a loss
	// Fault decides every frame attempt's fate (see internal/faults); nil
	// is a perfect link. It is the link's only loss mechanism: a function
	// of the frame's identity, never of transmission order, which differs
	// between substrates under concurrency.
	Fault FaultModel
}

// DefaultConfig returns a lossless MICA2-style link layer.
func DefaultConfig() Config {
	return Config{HeaderSize: DefaultHeaderSize, Payload: DefaultPayload, MaxRetries: 3}
}

// Message is an application-level record travelling between a node and its
// tree neighbor. Payload is the encoded record; the link layer fragments it
// into frames transparently.
type Message struct {
	From, To model.NodeID
	Kind     MsgKind
	Epoch    model.Epoch
	Payload  []byte
}

// Accounting receives the outcome of every link-layer transmission so that
// energy and System Panel counters can be maintained by the caller. TxBytes
// and RxBytes include headers; frames counts individual frames on air
// including retransmissions; delivered reports application-level success.
type Accounting struct {
	Frames    int // frames put on air (incl. retransmissions)
	TxBytes   int // total bytes transmitted (incl. headers, retries)
	RxBytes   int // total bytes successfully received
	RxFrames  int // frames successfully received
	Drops     int // frames lost (before any successful retry)
	Delivered bool
}

// Link simulates one directed transmission over a single hop.
type Link struct {
	cfg Config
}

// NewLink returns a link with the given configuration.
func NewLink(cfg Config) *Link {
	if cfg.HeaderSize <= 0 {
		cfg.HeaderSize = DefaultHeaderSize
	}
	if cfg.Payload <= 0 {
		cfg.Payload = DefaultPayload
	}
	return &Link{cfg: cfg}
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// SetFault installs (or clears) the deterministic fault model. Callers must
// install it before traffic flows: the link itself does not synchronize the
// swap against concurrent Transmits.
func (l *Link) SetFault(m FaultModel) { l.cfg.Fault = m }

// FramesFor reports how many frames a payload of n bytes needs. A zero-byte
// payload still needs one frame (an empty beacon is a frame on air).
func (l *Link) FramesFor(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + l.cfg.Payload - 1) / l.cfg.Payload
}

// Transmit sends one message across the hop, fragmenting and retrying as
// configured, and returns the accounting record. Each fragment attempt's
// fate comes from the fault model; a lost fragment is retried up to
// MaxRetries times, and the message is delivered only if every fragment
// eventually gets through (the TinyOS AM layer has no partial-delivery
// semantics).
func (l *Link) Transmit(msg Message) Accounting {
	var acc Accounting
	acc.Delivered = true
	n := len(msg.Payload)
	frames := l.FramesFor(n)
	for f := 0; f < frames; f++ {
		size := l.cfg.Payload
		if f == frames-1 && n > 0 {
			size = n - (frames-1)*l.cfg.Payload
		}
		if n == 0 {
			size = 0
		}
		wire := size + l.cfg.HeaderSize
		ok := false
		for attempt := 0; attempt <= l.cfg.MaxRetries; attempt++ {
			acc.Frames++
			acc.TxBytes += wire
			fate := FrameOK
			if l.cfg.Fault != nil {
				fate = l.cfg.Fault.Frame(msg, f, attempt)
			}
			switch fate {
			case FrameLost:
				acc.Drops++
				continue
			case FrameDelayed:
				// The late frame is heard (receive cost accrues) but missed
				// its window, so the AM layer drops and retries it.
				acc.RxBytes += wire
				acc.RxFrames++
				acc.Drops++
				continue
			case FrameDuplicated:
				// One spurious extra copy on air, received twice, kept once.
				acc.Frames++
				acc.TxBytes += wire
				acc.RxBytes += 2 * wire
				acc.RxFrames += 2
			default:
				acc.RxBytes += wire
				acc.RxFrames++
			}
			ok = true
			break
		}
		if !ok {
			acc.Delivered = false
			// Remaining fragments are not sent: the AM layer aborts the
			// message after a fragment exhausts its retries.
			break
		}
	}
	return acc
}

// kindSlots sizes the per-kind counters: one slot per MsgKind of the enum
// plus one, KindOther, that every value outside it folds into (the kinds
// MsgKind.String renders as "kind(n)"), so an arbitrary uint8 can never
// index out of range.
const (
	KindOther MsgKind = KindCtrl + 1
	kindSlots         = int(KindOther) + 1
)

// KindCounts is one counter per message kind, indexed by MsgKind.
type KindCounts [kindSlots]int

// Total sums the counter across kinds.
func (k *KindCounts) Total() int {
	t := 0
	for _, v := range k {
		t += v
	}
	return t
}

// Counter accumulates System Panel traffic statistics, broken down per
// message kind and per node. Both breakdowns are indexed, not hashed:
// every transmission of every sweep records here.
type Counter struct {
	Messages  KindCounts // delivered application messages
	Frames    KindCounts
	TxBytes   KindCounts
	RxBytes   KindCounts
	Drops     int
	Undeliver int
	PerNodeTx []int // tx bytes per sender, by node id
	PerNodeRx []int // rx bytes per receiver, by node id
}

// NewCounter returns a zeroed counter with per-node room for node ids
// below nodes; an id beyond that grows the tables when first recorded.
func NewCounter(nodes int) *Counter {
	return &Counter{PerNodeTx: make([]int, nodes), PerNodeRx: make([]int, nodes)}
}

// perNode returns the table grown to hold id.
func perNode(s []int, id model.NodeID) []int {
	if int(id) < len(s) {
		return s
	}
	return append(s, make([]int, int(id)+1-len(s))...)
}

// Record folds one transmission's accounting into the counter.
func (c *Counter) Record(msg Message, acc Accounting) {
	k := msg.Kind
	if k > KindOther {
		k = KindOther
	}
	c.Frames[k] += acc.Frames
	c.TxBytes[k] += acc.TxBytes
	c.RxBytes[k] += acc.RxBytes
	c.Drops += acc.Drops
	c.PerNodeTx = perNode(c.PerNodeTx, msg.From)
	c.PerNodeTx[msg.From] += acc.TxBytes
	c.PerNodeRx = perNode(c.PerNodeRx, msg.To)
	c.PerNodeRx[msg.To] += acc.RxBytes
	if acc.Delivered {
		c.Messages[k]++
	} else {
		c.Undeliver++
	}
}

// TotalMessages sums delivered messages across kinds.
func (c *Counter) TotalMessages() int { return c.Messages.Total() }

// TotalFrames sums frames across kinds.
func (c *Counter) TotalFrames() int { return c.Frames.Total() }

// TotalTxBytes sums transmitted bytes across kinds.
func (c *Counter) TotalTxBytes() int { return c.TxBytes.Total() }

// TotalRxBytes sums received bytes across kinds.
func (c *Counter) TotalRxBytes() int { return c.RxBytes.Total() }
