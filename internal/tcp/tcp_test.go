package tcp

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// rig is a dumbbell: h1 --1G-- sw --1G-- h2 with configurable bottleneck
// buffer on the sw->h2 port.
type rig struct {
	s      *sim.Simulator
	net    *netsim.Network
	h1, h2 *netsim.Host
	sw     *netsim.Switch
	bott   *netsim.Port
}

func newRig(buf int) *rig {
	s := sim.New(42)
	net := netsim.NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	// 10G access into a 1G bottleneck so queues actually form at sw->h2.
	cfg := netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 5 * sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: buf})
	net.ComputeRoutes()
	r := &rig{s: s, net: net, h1: h1, h2: h2, sw: sw}
	r.bott = sw.PortTo(h2.ID())
	return r
}

func (r *rig) conn(flow netsim.FlowID, opts ...func(*Config)) (*Sender, *transport.Receiver) {
	cfg := Config{DialConfig: transport.DialConfig{Sim: r.s, Local: r.h1, Peer: r.h2, Flow: flow}}
	for _, o := range opts {
		o(&cfg)
	}
	return Dial(cfg)
}

func TestHandshakeAndTransfer(t *testing.T) {
	r := newRig(256 << 10)
	snd, rcv := r.conn(1)
	done := false
	snd.Cfg.OnComplete = func() { done = true }
	r.s.At(0, func() {
		snd.Open()
		snd.Send(10 * 1460)
		snd.Close()
	})
	r.s.Run()
	if !done || !snd.Stats().Done {
		t.Fatal("transfer did not complete")
	}
	if rcv.Received() != 10*1460 {
		t.Fatalf("receiver got %d bytes, want %d", rcv.Received(), 10*1460)
	}
	if snd.Stats().Timeouts != 0 || snd.Stats().RtxBytes != 0 {
		t.Fatalf("clean path saw timeouts=%d rtx=%d", snd.Stats().Timeouts, snd.Stats().RtxBytes)
	}
	if rcv.FinAt == 0 {
		t.Fatal("FIN not delivered")
	}
}

func TestBulkGoodput(t *testing.T) {
	r := newRig(256 << 10)
	const total = 50 << 20 // 50 MB
	snd, rcv := r.conn(1)
	r.s.At(0, func() {
		snd.Open()
		snd.Send(total)
		snd.Close()
	})
	r.s.Run()
	if rcv.Received() != total {
		t.Fatalf("received %d, want %d", rcv.Received(), total)
	}
	fct := snd.Stats().FCT()
	goodput := float64(total) * 8 / fct.Seconds() // bits/s
	// Line-rate ceiling for 1460B MSS is ~94.9% of 1 Gbps.
	if goodput < 0.90e9 || goodput > 0.955e9 {
		t.Fatalf("goodput = %.1f Mbps, want ~930-949", goodput/1e6)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	r := newRig(1 << 20)
	snd, _ := r.conn(1)
	r.s.At(0, func() {
		snd.Open()
		snd.Send(1 << 20)
	})
	// Sample cwnd shortly after start: slow start should have grown it
	// well beyond the initial 2 segments within a few RTTs.
	var cwndEarly int64
	r.s.At(2*sim.Millisecond, func() { cwndEarly = snd.Cwnd() })
	r.s.RunUntil(5 * sim.Millisecond)
	if cwndEarly <= int64(4*netsim.MSS) {
		t.Fatalf("cwnd after 2ms = %d, slow start seems broken", cwndEarly)
	}
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	// Tiny bottleneck buffer forces drops; the transfer must still
	// complete via fast retransmit (not exclusively timeouts).
	r := newRig(8 * 1518)
	const total = 5 << 20
	snd, rcv := r.conn(1)
	r.s.At(0, func() {
		snd.Open()
		snd.Send(total)
		snd.Close()
	})
	r.s.Run()
	if rcv.Received() != total {
		t.Fatalf("received %d, want %d", rcv.Received(), total)
	}
	if r.bott.Drops == 0 {
		t.Fatal("expected drops with 8-frame buffer")
	}
	if snd.Stats().FastRtx == 0 {
		t.Fatal("expected fast retransmits")
	}
}

func TestRTOOnTotalLoss(t *testing.T) {
	// Drop everything at the bottleneck: the sender must keep trying via
	// exponentially backed-off RTOs without completing.
	r := newRig(256 << 10)
	drop := &dropHook{}
	r.bott.Hook = drop
	snd, _ := r.conn(1)
	r.s.At(0, func() {
		snd.Open()
		snd.Send(1460)
	})
	r.s.RunUntil(5 * sim.Second)
	if snd.Stats().Timeouts < 3 {
		t.Fatalf("timeouts = %d, want >=3 with all data dropped", snd.Stats().Timeouts)
	}
	if snd.Acked() != 0 {
		t.Fatal("nothing should be acked")
	}
}

type dropHook struct{ n int }

func (d *dropHook) OnEnqueue(*netsim.Packet, *netsim.Port) bool { d.n++; return false }

func TestSYNRetransmit(t *testing.T) {
	r := newRig(256 << 10)
	drop := &dropHook{}
	r.bott.Hook = drop
	snd, _ := r.conn(1)
	r.s.At(0, func() { snd.Open() })
	// Let two SYN timeouts pass, then heal the path.
	r.s.At(8*sim.Second, func() { r.bott.Hook = nil })
	done := false
	snd.Cfg.OnComplete = func() { done = true }
	r.s.At(9*sim.Second, func() {
		snd.Send(1460)
		snd.Close()
	})
	r.s.Run()
	if !done {
		t.Fatal("connection never established after SYN loss healed")
	}
	if snd.Stats().Timeouts == 0 {
		t.Fatal("expected SYN timeouts")
	}
}

func TestTwoFlowFairness(t *testing.T) {
	r := newRig(128 << 10)
	const total = 200 << 20
	s1, _ := r.conn(1)
	s2, _ := r.conn(2)
	r.s.At(0, func() { s1.Open(); s1.Send(total) })
	r.s.At(0, func() { s2.Open(); s2.Send(total) })
	r.s.RunUntil(3 * sim.Second)
	a1, a2 := s1.Acked(), s2.Acked()
	if a1 == 0 || a2 == 0 {
		t.Fatal("a flow starved completely")
	}
	// Drop-tail TCP is known-unfair at these timescales (the paper's
	// Fig 9c shows exactly this); only guard against outright starvation.
	ratio := float64(a1) / float64(a2)
	if ratio < 1.0/8 || ratio > 8 {
		t.Fatalf("long-run share ratio %.2f, want within 8x", ratio)
	}
	// Aggregate should still be near line rate.
	agg := float64(a1+a2) * 8 / r.s.Now().Seconds()
	if agg < 0.80e9 {
		t.Fatalf("aggregate %.1f Mbps, want > 800", agg/1e6)
	}
}

func TestPersistentConnectionOnDrain(t *testing.T) {
	r := newRig(256 << 10)
	drains := 0
	snd, _ := r.conn(1, func(c *Config) {
		c.OnDrain = func() { drains++ }
	})
	r.s.At(0, func() { snd.Open(); snd.Send(100 * 1460) })
	r.s.At(100*sim.Millisecond, func() { snd.Send(100 * 1460) })
	r.s.Run()
	if drains != 2 {
		t.Fatalf("OnDrain fired %d times, want 2 (one per message)", drains)
	}
	if snd.Acked() != 200*1460 {
		t.Fatalf("acked %d, want %d", snd.Acked(), 200*1460)
	}
}

func TestSendBeforeEstablishedQueues(t *testing.T) {
	r := newRig(256 << 10)
	snd, rcv := r.conn(1)
	r.s.At(0, func() {
		snd.Open()
		snd.Send(1460) // queued during handshake
	})
	r.s.Run()
	if rcv.Received() != 1460 {
		t.Fatal("data queued before establishment was lost")
	}
}

func TestCloseIdempotentAndEmptyFlow(t *testing.T) {
	r := newRig(256 << 10)
	snd, rcv := r.conn(1)
	completions := 0
	snd.Cfg.OnComplete = func() { completions++ }
	r.s.At(0, func() {
		snd.Open()
		snd.Close()
		snd.Close()
	})
	r.s.Run()
	if completions != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", completions)
	}
	if rcv.FinAt == 0 {
		t.Fatal("empty flow should still FIN")
	}
}

func TestMinRTOEnforced(t *testing.T) {
	r := newRig(256 << 10)
	snd, _ := r.conn(1) // default MinRTO = 200ms
	drop := &dropHook{}
	r.s.At(0, func() {
		snd.Open()
		snd.Send(1460)
	})
	// After establishment, break the path and measure time to first RTO.
	var rtoAt sim.Time
	r.s.At(10*sim.Millisecond, func() {
		r.bott.Hook = drop
		snd.Send(1460)
		base := snd.Stats().Timeouts
		var poll func()
		poll = func() {
			if snd.Stats().Timeouts > base && rtoAt == 0 {
				rtoAt = r.s.Now()
				return
			}
			r.s.After(sim.Millisecond, poll)
		}
		poll()
	})
	r.s.RunUntil(2 * sim.Second)
	if rtoAt == 0 {
		t.Fatal("no RTO observed")
	}
	if rtoAt-10*sim.Millisecond < 200*sim.Millisecond {
		t.Fatalf("RTO fired after %v, violating 200ms min", rtoAt-10*sim.Millisecond)
	}
}

func TestDCTCPAlphaTracksMarks(t *testing.T) {
	r := newRig(256 << 10)
	snd, _ := r.conn(1, func(c *Config) { c.DCTCP = &DCTCPParams{} })
	// Mark everything: alpha must climb toward 1.
	for _, p := range r.sw.Ports() {
		p.Hook = ceAll{}
	}
	r.s.At(0, func() { snd.Open(); snd.Send(10 << 20) })
	r.s.RunUntil(100 * sim.Millisecond)
	if snd.Alpha() < 0.5 {
		t.Fatalf("alpha = %.3f after persistent marking, want high", snd.Alpha())
	}
	if snd.Cwnd() > int64(4*netsim.MSS) {
		t.Fatalf("cwnd = %d under persistent marking, want small", snd.Cwnd())
	}
}

type ceAll struct{}

func (ceAll) OnEnqueue(p *netsim.Packet, _ *netsim.Port) bool {
	if p.Flags&netsim.FlagECT != 0 {
		p.Flags |= netsim.FlagCE
	}
	return true
}
