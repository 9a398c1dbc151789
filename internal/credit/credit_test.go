package credit

import (
	"math/rand"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/netsim/netsimtest"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// rig: n senders -> sw -> recv with the credit shaper attached.
type rig struct {
	s       *sim.Simulator
	senders []*netsim.Host
	recv    *netsim.Host
	sw      *netsim.Switch
	bott    *netsim.Port
}

func newRig(n, buf int) *rig {
	s := sim.New(21)
	net := netsim.NewNetwork(s)
	sw := net.NewSwitch("sw")
	recv := net.NewHost("recv")
	recv.ProcJitter = 10 * sim.Microsecond
	cfg := netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond}
	r := &rig{s: s, recv: recv, sw: sw}
	for i := 0; i < n; i++ {
		h := net.NewHost("h")
		h.ProcJitter = 10 * sim.Microsecond
		net.Connect(h, sw, cfg)
		r.senders = append(r.senders, h)
	}
	net.Connect(sw, recv, netsim.LinkConfig{
		Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: buf,
	})
	net.ComputeRoutes()
	AttachShaper(sw)
	r.bott = sw.PortTo(recv.ID())
	return r
}

// crd is the flags of the receiver's credits.
const crd = netsim.FlagCRD | netsim.FlagACK

func (r *rig) dial(i int, flow netsim.FlowID, opts ...func(*transport.DialConfig)) (*Sender, *Receiver) {
	cfg := transport.DialConfig{Sim: r.s, Local: r.senders[i], Peer: r.recv, Flow: flow}
	for _, o := range opts {
		o(&cfg)
	}
	return Dial(cfg)
}

func TestSingleTransferCompletes(t *testing.T) {
	r := newRig(1, 256<<10)
	done := false
	snd, rcv := r.dial(0, 1, func(c *transport.DialConfig) { c.OnComplete = func() { done = true } })
	r.s.At(0, func() {
		snd.Open()
		snd.Send(1 << 20)
		snd.Close()
	})
	r.s.RunUntil(sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if rcv.Received() != 1<<20 {
		t.Fatalf("received %d", rcv.Received())
	}
	if snd.Stats().Timeouts != 0 {
		t.Fatalf("timeouts = %d", snd.Stats().Timeouts)
	}
}

func TestRateRampsToLineRate(t *testing.T) {
	r := newRig(1, 256<<10)
	snd, rcv := r.dial(0, 1)
	r.s.At(0, func() { snd.Open(); snd.Send(1 << 30) })
	r.s.RunUntil(100 * sim.Millisecond)
	base := rcv.Received()
	r.s.RunUntil(300 * sim.Millisecond)
	goodput := float64(rcv.Received()-base) * 8 / 0.2
	// Waste feedback should push the credit rate near the max.
	if goodput < 0.80e9 {
		t.Fatalf("goodput %.1f Mbps, want near line rate", goodput/1e6)
	}
	if r.bott.Drops != 0 {
		t.Fatal("credited data must not drop")
	}
}

func TestIncastNoDataLoss(t *testing.T) {
	// The headline property shared with TFC: high fan-in without data
	// loss, because the shaper drops excess *credits* instead.
	const n = 60
	r := newRig(n, 64<<10)
	shed := netsimtest.Attach(r.recv.Network(), &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvDrop), Flags: crd})
	done := 0
	for i := 0; i < n; i++ {
		snd, _ := r.dial(i, netsim.FlowID(i+1),
			func(c *transport.DialConfig) { c.OnComplete = func() { done++ } })
		r.s.At(0, func() {
			snd.Open()
			snd.Send(64 << 10)
			snd.Close()
		})
	}
	r.s.RunUntil(5 * sim.Second)
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if r.bott.Drops != 0 {
		t.Fatalf("data drops = %d, want 0 (credits should be shed instead)", r.bott.Drops)
	}
	if len(shed.Recs) == 0 {
		t.Fatal("shaper never shed credits at 60-way fan-in")
	}
}

func TestFairnessTwoFlows(t *testing.T) {
	r := newRig(2, 256<<10)
	a, _ := r.dial(0, 1)
	b, _ := r.dial(1, 2)
	r.s.At(0, func() { a.Open(); a.Send(1 << 30) })
	r.s.At(0, func() { b.Open(); b.Send(1 << 30) })
	r.s.RunUntil(200 * sim.Millisecond)
	b1, b2 := a.Acked(), b.Acked()
	r.s.RunUntil(500 * sim.Millisecond)
	d1, d2 := a.Acked()-b1, b.Acked()-b2
	ratio := float64(d1) / float64(d2)
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("share ratio %.2f, want roughly fair", ratio)
	}
}

func TestQueueStaysSmall(t *testing.T) {
	r := newRig(4, 256<<10)
	for i := 0; i < 4; i++ {
		snd, _ := r.dial(i, netsim.FlowID(i+1))
		r.s.At(0, func() { snd.Open(); snd.Send(1 << 30) })
	}
	r.s.RunUntil(300 * sim.Millisecond)
	// Credited data is paced at the shaper: standing queue ~ a few frames.
	if r.bott.MaxQueue > 40<<10 {
		t.Fatalf("max queue %dKB, want small (credit-paced)", r.bott.MaxQueue>>10)
	}
	if r.bott.Drops != 0 {
		t.Fatal("drops under credit pacing")
	}
}

func TestSilentFlowStopsCredits(t *testing.T) {
	r := newRig(1, 256<<10)
	credits := netsimtest.Attach(r.recv.Network(), &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvHostSend), Host: r.recv, Flags: crd})
	snd, _ := r.dial(0, 1)
	r.s.At(0, func() { snd.Open(); snd.Send(256 << 10) })
	r.s.RunUntil(100 * sim.Millisecond)
	if snd.Acked() != 256<<10 {
		t.Fatalf("message not drained: %d", snd.Acked())
	}
	sent := len(credits.Recs)
	r.s.RunUntil(200 * sim.Millisecond)
	// After drain, the credit stream must stop (no 100ms of wasted 64B
	// frames on the reverse path).
	if grew := len(credits.Recs) - sent; grew > 5 {
		t.Fatalf("%d credits sent to a silent flow", grew)
	}
	// Resume works.
	r.s.At(r.s.Now(), func() { snd.Send(256 << 10) })
	r.s.RunUntil(400 * sim.Millisecond)
	if snd.Acked() != 512<<10 {
		t.Fatalf("resume failed: %d", snd.Acked())
	}
}

// uniformLoss is a netsim.LossModel that loses each packet with
// probability p: one draw per packet from the port's loss stream.
type uniformLoss float64

func (p uniformLoss) Lose(r *rand.Rand) bool { return r.Float64() < float64(p) }

func TestRecoveryAfterDataLoss(t *testing.T) {
	r := newRig(1, 256<<10)
	r.bott.SetLoss(uniformLoss(0.01))
	done := false
	snd, _ := r.dial(0, 1, func(c *transport.DialConfig) {
		c.MinRTO = 10 * sim.Millisecond
		c.OnComplete = func() { done = true }
	})
	r.s.At(0, func() {
		snd.Open()
		snd.Send(5 << 20)
		snd.Close()
	})
	r.s.RunUntil(10 * sim.Second)
	if !done {
		t.Fatal("transfer did not recover from injected loss")
	}
}

func TestLostCreditRequestRecovers(t *testing.T) {
	// A persistent connection (incast rounds, on-off flows): the first
	// message drains, which stops the retransmission timer, and the
	// credit request announcing the second message is lost on the
	// sender's uplink. The receiver has nothing to credit and stays
	// silent; only the sender's timer can re-request. Send used to leave
	// it unarmed, and the flow hung forever.
	r := newRig(1, 256<<10)
	drains := 0
	snd, rcv := r.dial(0, 1, func(c *transport.DialConfig) { c.OnDrain = func() { drains++ } })
	r.s.At(0, func() { snd.Open(); snd.Send(64 << 10) })
	r.s.RunUntil(100 * sim.Millisecond)
	if drains != 1 {
		t.Fatalf("first message: %d drains, want 1", drains)
	}
	uplink := r.senders[0].NIC()
	uplink.SetDown()
	snd.Send(64 << 10)
	r.s.RunUntil(r.s.Now() + 2*sim.Millisecond)
	uplink.SetUp()
	r.s.RunUntil(r.s.Now() + 10*sim.Second)
	if drains != 2 || rcv.Received() != 128<<10 {
		t.Fatalf("second message stuck: drains=%d received=%d acked=%d timeouts=%d",
			drains, rcv.Received(), snd.Acked(), snd.Stats().Timeouts)
	}
}

// A timeout with data in flight books one segment as retransmitted, as
// every window sender's go-back-N does, and reports it to the probe.
func TestTimeoutBooksOneSegment(t *testing.T) {
	r := newRig(1, 256<<10)
	rtx := &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvRetransmit)}
	snd, rcv := r.dial(0, 1, func(c *transport.DialConfig) {
		c.MinRTO = sim.Millisecond
		c.Probe = rtx
	})
	r.s.At(0, func() { snd.Open(); snd.Send(256 << 10) })
	r.s.At(200*sim.Microsecond, r.bott.SetDown)
	r.s.At(5*sim.Millisecond, r.bott.SetUp)
	r.s.RunUntil(100 * sim.Millisecond)
	st := snd.Stats()
	if st.Timeouts == 0 || rcv.Received() != 256<<10 {
		t.Fatalf("timeouts=%d received=%d: want a timeout and a completed transfer", st.Timeouts, rcv.Received())
	}
	if len(rtx.Recs) == 0 || int64(len(rtx.Recs)) > st.Timeouts {
		t.Fatalf("%d retransmit records for %d timeouts, want one per timeout with data in flight", len(rtx.Recs), st.Timeouts)
	}
	var sum int64
	for _, r := range rtx.Recs {
		if r.A != netsim.MSS {
			t.Errorf("retransmit record of %d bytes, want one segment (%d)", r.A, netsim.MSS)
		}
		sum += r.A
	}
	if sum != st.RtxBytes {
		t.Errorf("records sum to %d bytes, Stats().RtxBytes = %d", sum, st.RtxBytes)
	}
}
