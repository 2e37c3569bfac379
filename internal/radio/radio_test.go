package radio

import (
	"testing"
	"testing/quick"

	"kspot/internal/model"
)

func TestFramesFor(t *testing.T) {
	l := NewLink(DefaultConfig())
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {29, 1}, {30, 2}, {58, 2}, {59, 3}, {290, 10},
	}
	for _, c := range cases {
		if got := l.FramesFor(c.n); got != c.want {
			t.Errorf("FramesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestWireBytes: a lossless transmit puts the payload plus one header per
// fragment on air.
func TestWireBytes(t *testing.T) {
	l := NewLink(DefaultConfig())
	for _, c := range []struct{ n, want int }{{29, 29 + 7}, {30, 30 + 2*7}, {0, 7}} {
		if got := onAir(l, c.n); got != c.want {
			t.Errorf("a %d-byte payload puts %d bytes on air, want %d", c.n, got, c.want)
		}
	}
}

// onAir is the bytes one lossless transmit of an n-byte payload sends.
func onAir(l *Link, n int) int {
	return l.Transmit(Message{From: 1, To: 0, Kind: KindData, Payload: make([]byte, n)}).TxBytes
}

func TestTransmitLossless(t *testing.T) {
	l := NewLink(DefaultConfig())
	msg := Message{From: 1, To: 0, Kind: KindData, Payload: make([]byte, 64)}
	acc := l.Transmit(msg)
	if !acc.Delivered {
		t.Fatal("lossless transmit not delivered")
	}
	if acc.Frames != 3 {
		t.Errorf("frames = %d, want 3", acc.Frames)
	}
	if acc.TxBytes != 64+3*7 {
		t.Errorf("TxBytes = %d", acc.TxBytes)
	}
	if acc.TxBytes != acc.RxBytes {
		t.Errorf("lossless tx %d != rx %d", acc.TxBytes, acc.RxBytes)
	}
	if acc.Drops != 0 {
		t.Errorf("drops = %d", acc.Drops)
	}
}

func TestTransmitEmptyBeacon(t *testing.T) {
	l := NewLink(DefaultConfig())
	acc := l.Transmit(Message{From: 0, To: 1, Kind: KindBeacon})
	if !acc.Delivered || acc.Frames != 1 || acc.TxBytes != 7 {
		t.Errorf("beacon acc = %+v", acc)
	}
}

// keyedLoss is a Bernoulli FaultModel in the shape internal/faults gives
// every lossy link (this package cannot import it): a frame attempt is lost
// when a hash of its identity and the seed falls under the rate.
type keyedLoss struct {
	rate float64
	seed uint64
}

func (k keyedLoss) Frame(m Message, frag, attempt int) FrameFate {
	h := k.seed ^ uint64(m.From)<<48 ^ uint64(m.To)<<32 ^ uint64(m.Epoch)<<12 ^ uint64(frag)<<6 ^ uint64(attempt)
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	if float64((h^h>>31)>>11)/(1<<53) < k.rate {
		return FrameLost
	}
	return FrameOK
}

func TestTransmitLossyRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = keyedLoss{rate: 0.5, seed: 42}
	cfg.MaxRetries = 10
	l := NewLink(cfg)
	delivered := 0
	totalFrames := 0
	for i := 0; i < 200; i++ {
		acc := l.Transmit(Message{From: 1, To: 0, Kind: KindData, Epoch: model.Epoch(i), Payload: make([]byte, 20)})
		if acc.Delivered {
			delivered++
		}
		totalFrames += acc.Frames
	}
	if delivered < 195 {
		t.Errorf("with 10 retries at 50%% loss, delivered = %d/200", delivered)
	}
	if totalFrames <= 200 {
		t.Errorf("lossy link should need retransmissions, frames = %d", totalFrames)
	}
}

func TestTransmitTotalLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = keyedLoss{rate: 0.999999, seed: 1}
	cfg.MaxRetries = 2
	l := NewLink(cfg)
	acc := l.Transmit(Message{From: 1, To: 0, Kind: KindData, Payload: make([]byte, 100)})
	if acc.Delivered {
		t.Fatal("message delivered through a dead link")
	}
	if acc.Frames != 3 { // 1 try + 2 retries of the first fragment only
		t.Errorf("frames = %d, want 3 (abort after first fragment)", acc.Frames)
	}
}

func TestCounterRecord(t *testing.T) {
	l := NewLink(DefaultConfig())
	c := NewCounter(0)
	msg := Message{From: 3, To: 1, Kind: KindData, Payload: make([]byte, 40)}
	acc := l.Transmit(msg)
	c.Record(msg, acc)
	beacon := Message{From: 0, To: 1, Kind: KindBeacon}
	c.Record(beacon, l.Transmit(beacon))

	if c.Messages[KindData] != 1 || c.Messages[KindBeacon] != 1 {
		t.Errorf("messages = %+v", c.Messages)
	}
	if c.TotalMessages() != 2 {
		t.Errorf("TotalMessages = %d", c.TotalMessages())
	}
	if c.TotalTxBytes() != acc.TxBytes+7 {
		t.Errorf("TotalTxBytes = %d", c.TotalTxBytes())
	}
	if c.PerNodeTx[3] != acc.TxBytes {
		t.Errorf("PerNodeTx[3] = %d", c.PerNodeTx[3])
	}
	if c.PerNodeRx[1] != acc.RxBytes+7 {
		t.Errorf("PerNodeRx[1] = %d", c.PerNodeRx[1])
	}
	if c.TotalFrames() != acc.Frames+1 {
		t.Errorf("TotalFrames = %d", c.TotalFrames())
	}
	if c.TotalRxBytes() != c.TotalTxBytes() {
		t.Errorf("lossless rx %d != tx %d", c.TotalRxBytes(), c.TotalTxBytes())
	}
}

func TestCounterUndelivered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = keyedLoss{rate: 0.9999, seed: 5}
	cfg.MaxRetries = 0
	l := NewLink(cfg)
	c := NewCounter(0)
	msg := Message{From: 1, To: 0, Kind: KindData, Payload: []byte{1}}
	c.Record(msg, l.Transmit(msg))
	if c.Undeliver != 1 {
		t.Errorf("Undeliver = %d", c.Undeliver)
	}
	if c.TotalMessages() != 0 {
		t.Errorf("TotalMessages = %d, want 0", c.TotalMessages())
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{KindData: "data", KindBeacon: "beacon", KindLB: "lb", KindHJ: "hj", KindCL: "cl", KindCtrl: "ctrl"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// Property: a lossless transmit's on-air bytes always equal payload +
// frames*header, and frames is minimal for the payload size.
func TestWireBytesProperty(t *testing.T) {
	f := func(nRaw uint16, payloadRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.Payload = 1 + int(payloadRaw)%100
		l := NewLink(cfg)
		n := int(nRaw) % 2000
		frames := l.FramesFor(n)
		if n > 0 && (frames-1)*cfg.Payload >= n {
			return false // one frame too many
		}
		if frames*cfg.Payload < n {
			return false // not enough frames
		}
		return onAir(l, n) == n+frames*cfg.HeaderSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: lossless transmits always deliver with tx == rx accounting.
func TestLosslessDeliveryProperty(t *testing.T) {
	l := NewLink(DefaultConfig())
	f := func(size uint16, from, to uint8) bool {
		msg := Message{From: model.NodeID(from), To: model.NodeID(to), Kind: KindData, Payload: make([]byte, int(size)%500)}
		acc := l.Transmit(msg)
		return acc.Delivered && acc.TxBytes == acc.RxBytes && acc.Drops == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A kind outside the enum — any uint8 the String method renders as
// "kind(n)" — is counted in the one KindOther slot, never out of range.
func TestCounterFoldsUnknownKinds(t *testing.T) {
	l := NewLink(DefaultConfig())
	c := NewCounter(0)
	for _, k := range []MsgKind{KindOther, 9, 255} {
		msg := Message{From: 2, To: 1, Kind: k, Payload: []byte{1, 2, 3}}
		c.Record(msg, l.Transmit(msg))
	}
	wire := 3 + DefaultHeaderSize
	if c.Messages[KindOther] != 3 || c.TxBytes[KindOther] != 3*wire || c.TotalTxBytes() != 3*wire {
		t.Errorf("unknown kinds: messages %v tx bytes %v", c.Messages, c.TxBytes)
	}
	if got := KindOther.String(); got != "kind(6)" {
		t.Errorf("KindOther.String() = %q", got)
	}
	if c.PerNodeTx[2] != 3*wire || len(c.PerNodeRx) != 2 {
		t.Errorf("per-node tables grew to tx %v rx %v", c.PerNodeTx, c.PerNodeRx)
	}
}
