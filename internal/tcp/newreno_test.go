package tcp

// Unit-level NewReno machinery tests: these drive the sender with crafted
// ACK packets instead of a network, pinning the RFC 6582 state machine.

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// harness registers a sender on a minimal one-link network whose far end
// swallows everything, so tests can feed crafted ACKs via Deliver.
type harness struct {
	s   *sim.Simulator
	snd *Sender
	out []netsim.Packet // packets the sender transmitted, by value (a *Packet is pooled once Deliver returns)
	h2  *netsim.Host
}

type swallow struct{ h *harness }

func (sw *swallow) Deliver(p *netsim.Packet) { sw.h.out = append(sw.h.out, *p) }

func newHarness(t *testing.T, opts ...func(*Config)) *harness {
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	swt := net.NewSwitch("sw")
	cfg := netsim.LinkConfig{Rate: 100 * netsim.Gbps, Delay: 1}
	net.Connect(h1, swt, cfg)
	net.Connect(swt, h2, cfg)
	net.ComputeRoutes()
	h := &harness{s: s}
	h.h2 = h2
	c := Config{DialConfig: transport.DialConfig{Sim: s, Local: h1, Peer: h2, Flow: 1}}
	for _, o := range opts {
		o(&c)
	}
	h.snd = NewSender(c)
	h2.Register(1, &swallow{h})
	return h
}

// establish opens the connection and completes the handshake.
func (h *harness) establish() {
	h.s.At(0, func() { h.snd.Open() })
	h.s.RunUntil(sim.Microsecond)
	h.ack(0, netsim.FlagSYN|netsim.FlagACK)
	h.s.RunUntil(h.s.Now() + sim.Microsecond)
}

// ack delivers a crafted ACK to the sender (directly, no network).
func (h *harness) ack(ackNo int64, flags netsim.Flag) {
	h.snd.Deliver(&netsim.Packet{
		Flow: 1, Flags: flags | netsim.FlagACK, Ack: ackNo,
		SentAt: h.s.Now(),
	})
}

// drain runs pending transmissions to the swallow endpoint.
func (h *harness) drain() { h.s.RunUntil(h.s.Now() + 10*sim.Microsecond) }

func TestUnitSlowStartGrowth(t *testing.T) {
	h := newHarness(t)
	h.establish()
	h.snd.Send(1 << 20)
	h.drain()
	cwnd0 := h.snd.Cwnd()
	// ACK one segment: cwnd grows by one MSS in slow start.
	h.ack(1460, 0)
	if h.snd.Cwnd() != cwnd0+1460 {
		t.Fatalf("cwnd after 1 ACK = %d, want %d", h.snd.Cwnd(), cwnd0+1460)
	}
}

func TestUnitCongestionAvoidanceGrowth(t *testing.T) {
	h := newHarness(t)
	h.establish()
	h.snd.Send(10 << 20)
	h.drain()
	// Force CA: set ssthresh below cwnd via an RTO-free trick — grow past
	// ssthresh by acking; instead directly exercise: ssthresh default is
	// huge, so emulate by many ACKs then verify sub-linear growth after a
	// fast retransmit sets ssthresh.
	// Dupacks x3 -> FR; then full ACK exits with cwnd = ssthresh.
	h.ack(1460, 0)
	h.drain()
	for i := 0; i < 3; i++ {
		h.ack(1460, 0) // duplicates
	}
	if !h.snd.inFR {
		t.Fatal("3 dupacks should enter fast recovery")
	}
	recover := h.snd.recover
	h.ack(recover, 0) // full ACK
	if h.snd.inFR {
		t.Fatal("full ACK should exit fast recovery")
	}
	ss := h.snd.ssthresh
	if h.snd.Cwnd() != ss {
		t.Fatalf("cwnd after FR exit = %d, want ssthresh %d", h.snd.Cwnd(), ss)
	}
	h.drain()
	// Now in CA: one full-MSS ACK grows cwnd by ~MSS^2/cwnd.
	before := h.snd.Cwnd()
	h.ack(recover+1460, 0)
	grow := h.snd.Cwnd() - before
	if grow <= 0 || grow > 1460 {
		t.Fatalf("CA growth per ACK = %d, want (0, MSS]", grow)
	}
	if grow == 1460 && before > 2*1460 {
		t.Fatalf("growth looks like slow start (%d) though cwnd %d >= ssthresh %d",
			grow, before, ss)
	}
}

func TestUnitFastRetransmitResendsHole(t *testing.T) {
	h := newHarness(t)
	h.establish()
	h.snd.Send(100 * 1460)
	h.drain()
	sent := len(h.out)
	h.ack(1460, 0)
	h.drain()
	for i := 0; i < 3; i++ {
		h.ack(1460, 0)
	}
	h.drain()
	// The retransmission of seq 1460 must be among the new transmissions.
	found := false
	for _, p := range h.out[sent:] {
		if p.Seq == 1460 && p.Payload > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("fast retransmit did not resend the hole")
	}
	if h.snd.Stats().FastRtx != 1 {
		t.Fatalf("FastRtx = %d, want 1", h.snd.Stats().FastRtx)
	}
}

func TestUnitPartialACKStaysInRecovery(t *testing.T) {
	h := newHarness(t)
	h.establish()
	h.snd.Send(100 * 1460)
	h.drain()
	h.ack(1460, 0)
	h.drain()
	for i := 0; i < 3; i++ {
		h.ack(1460, 0)
	}
	recover := h.snd.recover
	// Partial ACK: advances but below recover.
	h.ack(recover/2, 0)
	if !h.snd.inFR {
		t.Fatal("partial ACK must keep NewReno in fast recovery")
	}
	h.ack(recover, 0)
	if h.snd.inFR {
		t.Fatal("full ACK must exit recovery")
	}
}

func TestUnitDupacksBelowThresholdHarmless(t *testing.T) {
	h := newHarness(t)
	h.establish()
	h.snd.Send(100 * 1460)
	h.drain()
	h.ack(1460, 0)
	cwnd := h.snd.Cwnd()
	h.ack(1460, 0)
	h.ack(1460, 0) // only 2 dupacks
	if h.snd.inFR {
		t.Fatal("2 dupacks must not trigger fast retransmit")
	}
	if h.snd.Cwnd() != cwnd {
		t.Fatalf("cwnd changed on dupacks below threshold: %d -> %d", cwnd, h.snd.Cwnd())
	}
}

func TestUnitRTOCollapsesWindow(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MinRTO = 10 * sim.Millisecond })
	h.establish()
	h.snd.Send(100 * 1460)
	h.drain()
	h.ack(10*1460, 0)
	h.drain()
	if h.snd.Cwnd() <= int64(2*1460) {
		t.Fatal("precondition: cwnd should have grown")
	}
	// Let the RTO fire (no more ACKs).
	h.s.RunUntil(h.s.Now() + 500*sim.Millisecond)
	if h.snd.Stats().Timeouts == 0 {
		t.Fatal("RTO did not fire")
	}
	if h.snd.Cwnd() != 1460 {
		t.Fatalf("cwnd after RTO = %d, want 1 MSS", h.snd.Cwnd())
	}
	if h.snd.SndNxt != h.snd.SndUna+1460 {
		t.Fatalf("go-back-N: sndNxt=%d sndUna=%d, want one segment resent",
			h.snd.SndNxt, h.snd.SndUna)
	}
}

func TestUnitRTOExponentialBackoff(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MinRTO = 10 * sim.Millisecond })
	h.establish()
	h.snd.Send(1460)
	h.drain()
	// Record timeout instants.
	var fires []sim.Time
	last := int64(0)
	for i := 0; i < 400; i++ {
		h.s.RunUntil(h.s.Now() + sim.Millisecond)
		if to := h.snd.Stats().Timeouts; to > last {
			fires = append(fires, h.s.Now())
			last = to
		}
		if len(fires) >= 3 {
			break
		}
	}
	if len(fires) < 3 {
		t.Fatalf("only %d RTOs in 400ms", len(fires))
	}
	gap1 := fires[1] - fires[0]
	gap2 := fires[2] - fires[1]
	if gap2 < gap1*3/2 {
		t.Fatalf("no exponential backoff: gaps %v then %v", gap1, gap2)
	}
}

func TestUnitECEWithoutDCTCPIgnored(t *testing.T) {
	// A plain NewReno sender must not react to ECE (no ECN negotiation).
	h := newHarness(t)
	h.establish()
	h.snd.Send(100 * 1460)
	h.drain()
	h.ack(1460, 0)
	cwnd := h.snd.Cwnd()
	h.ack(2920, netsim.FlagECE)
	if h.snd.Cwnd() < cwnd {
		t.Fatal("non-ECN sender reduced cwnd on ECE")
	}
}

func TestUnitDCTCPProportionalCut(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.DCTCP = &DCTCPParams{G: 1.0 / 16, InitAlpha: 1} })
	h.establish()
	h.snd.Send(100 * 1460)
	h.drain()
	cwnd0 := h.snd.Cwnd() // 2 MSS initial window
	// Persistent marks across many window boundaries: alpha ~ 1, cwnd
	// pinned at/near the 1-MSS floor, never growing.
	for a := int64(1460); a <= 20*1460; a += 1460 {
		h.ack(a, netsim.FlagECE)
	}
	if h.snd.Cwnd() >= cwnd0 {
		t.Fatalf("DCTCP did not cut cwnd under persistent marks: %d -> %d", cwnd0, h.snd.Cwnd())
	}
	if h.snd.Cwnd() > int64(2*1460) {
		t.Fatalf("cwnd %d grew under persistent marks", h.snd.Cwnd())
	}
	if h.snd.Alpha() < 0.5 {
		t.Fatalf("alpha = %.2f, want near 1 under full marking", h.snd.Alpha())
	}
}
