// Package wiretest injects deterministic socket faults under a wire server,
// for tests: Listen decorates the net.Listener a wire.Server serves on, and
// every connection it accepts drops, duplicates and delays request frames
// and swallows reply frames on the server's side of the socket. To the
// client a dropped request is one it never wrote and a swallowed reply one
// that never arrived, so the client keeps one send path and one read path.
//
// Decisions are keyed hashes of (seed, fault dimension, sequence, attempt)
// — faults.KeyedUnit, the radio tier's discipline — where attempt is the
// number of arrivals of that sequence the listener had counted before this
// one, across reconnects. Because the wire layer executes a sequence at
// most once and replays its cached reply, injected faults cost latency and
// retries, never results. The frame layout read here is wire's: a 4-byte
// little-endian length, an 8-byte sequence and a type byte ahead of the
// payload. A connection's first frame each way, the hello and its welcome,
// passes untouched.
package wiretest

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"kspot/internal/faults"
)

// Fault-dimension salts (distinct from the radio tier's, which hash
// message identities, not rpc sequences).
const (
	saltDrop     uint64 = 0x77697265_0001
	saltDup      uint64 = 0x77697265_0002
	saltDelay    uint64 = 0x77697265_0003
	saltDropResp uint64 = 0x77697265_0004
)

// headerSize is wire's frame header: length, sequence, type.
const headerSize = 4 + 8 + 1

// Faults configures a listener's frame faults. Probabilities are per
// (sequence, attempt); the zero value injects nothing.
type Faults struct {
	Seed int64
	// Drop is the probability a request frame is counted and discarded.
	Drop float64
	// Dup is the probability a request frame is handed to the server twice.
	Dup float64
	// Delay is the probability a request frame is held back (up to
	// MaxDelay, default 2ms); later frames may overtake it.
	Delay float64
	// DropResp is the probability a reply frame is swallowed, so the call
	// times out and retries its sequence.
	DropResp float64
	MaxDelay time.Duration
	// LinkDelay is a symmetric propagation latency applied to every frame
	// after the handshake: requests reach the server and replies reach the
	// socket LinkDelay late, so one call costs 2×LinkDelay. Deliveries
	// overlap: a delayed frame holds no other frame back.
	LinkDelay time.Duration
}

func (f Faults) hit(salt uint64, p float64, seq, attempt uint64) bool {
	return p > 0 && faults.KeyedUnit(f.Seed, salt, seq, attempt) < p
}

// Lost reports whether the given arrival (attempt, counted from 0) of a
// request frame is dropped or has its reply swallowed, so a test can pick
// a seed that loses exactly the calls it means to.
func (f Faults) Lost(seq, attempt uint64) bool {
	return f.hit(saltDrop, f.Drop, seq, attempt) || f.hit(saltDropResp, f.DropResp, seq, attempt)
}

// delay is how late a request frame reaches the server.
func (f Faults) delay(seq, attempt uint64) time.Duration {
	if f.Delay <= 0 {
		return f.LinkDelay
	}
	u := faults.KeyedUnit(f.Seed, saltDelay, seq, attempt)
	if u >= f.Delay {
		return f.LinkDelay
	}
	max := f.MaxDelay
	if max <= 0 {
		max = 2 * time.Millisecond
	}
	// The decision variate, rescaled to [0,1), draws the duration too.
	return f.LinkDelay + time.Duration(float64(max)*(u/f.Delay))
}

// Listen wraps ln: every connection it accepts suffers f. The zero Faults
// returns ln itself.
func Listen(ln net.Listener, f Faults) net.Listener {
	if f == (Faults{}) {
		return ln
	}
	return &listener{Listener: ln, f: f, arrivals: make(map[uint64]uint64)}
}

type listener struct {
	net.Listener
	f        Faults
	mu       sync.Mutex
	arrivals map[uint64]uint64 // request frames counted per sequence
}

// arrive counts one arrival of seq and returns its attempt.
func (l *listener) arrive(seq uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.arrivals[seq]
	l.arrivals[seq] = n + 1
	return n
}

// attempt is the attempt of seq's latest arrival, which a reply answers.
func (l *listener) attempt(seq uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return max(l.arrivals[seq], 1) - 1
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &conn{Conn: nc, l: l}
	c.ready.L = &c.mu
	go c.pump()
	return c, nil
}

// conn is one accepted connection. A pump goroutine reads request frames
// off the socket and queues each for the server's reads at its delivery
// time; the server's reply frames are sent, swallowed or sent late.
type conn struct {
	net.Conn
	l *listener

	mu     sync.Mutex
	ready  sync.Cond // on mu: a frame was queued, or the socket ended
	queue  [][]byte  // request frames due for the server, in delivery order
	unread []byte    // the rest of the frame Read is handing out
	err    error     // why the pump stopped

	wmu     sync.Mutex
	welcome bool // the first reply has passed
}

func (c *conn) pump() {
	for first := true; ; first = false {
		frame, err := readFrame(c.Conn)
		if err != nil {
			c.mu.Lock()
			c.err = err
			c.ready.Broadcast()
			c.mu.Unlock()
			return
		}
		if first {
			c.deliver(frame, 0)
			continue
		}
		seq := binary.LittleEndian.Uint64(frame[4:])
		attempt := c.l.arrive(seq)
		f := c.l.f
		if f.hit(saltDrop, f.Drop, seq, attempt) {
			continue
		}
		d := f.delay(seq, attempt)
		c.deliver(frame, d)
		if f.hit(saltDup, f.Dup, seq, attempt) {
			c.deliver(frame, d)
		}
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	frame := make([]byte, 4+binary.LittleEndian.Uint32(hdr[:]))
	copy(frame, hdr[:])
	_, err := io.ReadFull(r, frame[headerSize:])
	return frame, err
}

// deliver queues frame for the server's reads after the given delay. A
// frame still held back when the socket ends is lost with it.
func (c *conn) deliver(frame []byte, after time.Duration) {
	queue := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.queue = append(c.queue, frame)
		c.ready.Broadcast()
	}
	if after > 0 {
		time.AfterFunc(after, queue)
		return
	}
	queue()
}

// Read hands the server its queued request frames, then the socket's error.
func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.unread) == 0 {
		switch {
		case len(c.queue) > 0:
			c.unread, c.queue = c.queue[0], c.queue[1:]
		case c.err != nil:
			return 0, c.err
		default:
			c.ready.Wait()
		}
	}
	n := copy(p, c.unread)
	c.unread = c.unread[n:]
	return n, nil
}

// Write sends one reply frame — a wire server writes each frame in one
// call: the welcome as it is, any other unless the faults swallow it,
// LinkDelay late.
func (c *conn) Write(frame []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if f := c.l.f; c.welcome {
		seq := binary.LittleEndian.Uint64(frame[4:])
		if f.hit(saltDropResp, f.DropResp, seq, c.l.attempt(seq)) {
			return len(frame), nil
		}
		if f.LinkDelay > 0 {
			frame = slices.Clone(frame)
			time.AfterFunc(f.LinkDelay, func() {
				c.wmu.Lock()
				defer c.wmu.Unlock()
				c.Conn.Write(frame)
			})
			return len(frame), nil
		}
	}
	c.welcome = true
	return c.Conn.Write(frame)
}
