package bfc

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/netsim/netsimtest"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// rig is a dumbbell with BFC attached: h1 --10G-- sw --1G-- h2, so queues
// form (and backpressure engages) at the sw->h2 bottleneck.
type rig struct {
	s      *sim.Simulator
	net    *netsim.Network
	h1, h2 *netsim.Host
	sw     *netsim.Switch
	bott   *netsim.Port
	hooks  []*Hook
}

func newRig(buf int) *rig {
	s := sim.New(42)
	net := netsim.NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	net.Connect(h1, sw, netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 5 * sim.Microsecond})
	net.Connect(sw, h2, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: buf})
	net.ComputeRoutes()
	r := &rig{s: s, net: net, h1: h1, h2: h2, sw: sw}
	r.hooks = AttachSwitch(sw)
	r.bott = sw.PortTo(h2.ID())
	return r
}

func (r *rig) conn(flow netsim.FlowID, opts ...func(*transport.DialConfig)) (*Sender, *transport.Receiver) {
	cfg := transport.DialConfig{Sim: r.s, Local: r.h1, Peer: r.h2, Flow: flow}
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
}

func TestBulkGoodputUnderBackpressure(t *testing.T) {
	// A 10G sender into a 1G bottleneck pauses constantly, but the resume
	// threshold keeps ≥4KB of backlog at the port so it never goes idle:
	// goodput must stay at line rate even though the flow spends most of
	// its life XOF'd.
	r := newRig(256 << 10)
	const total = 20 << 20
	snd, rcv := r.conn(1)
	xof := r.xofsTo(r.h1)
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
	goodput := float64(total) * 8 / fct.Seconds()
	if goodput < 0.88e9 || goodput > 0.955e9 {
		t.Fatalf("goodput = %.1f Mbps, want ~900-949", goodput/1e6)
	}
	if len(xof.Recs) == 0 {
		t.Fatal("rate mismatch never triggered a pause")
	}
}

func TestPauseKeepsQueueShallow(t *testing.T) {
	// Backpressure, not buffer depth, must bound the bottleneck queue:
	// with a 256KB buffer available, the standing queue stays within a
	// small multiple of the pause threshold and nothing is dropped.
	r := newRig(256 << 10)
	pauses := netsimtest.Attach(r.net, &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvPause), Port: r.bott})
	snd, _ := r.conn(1)
	r.s.At(0, func() { snd.Open(); snd.Send(20 << 20) })
	r.s.RunUntil(50 * sim.Millisecond)
	if r.bott.Drops != 0 {
		t.Fatalf("drops = %d, backpressure should prevent congestion loss", r.bott.Drops)
	}
	// Threshold + one window of in-flight slack: pause reaction is an
	// access-link RTT, during which at most a window more can land.
	limit := PauseBytes + Window
	if r.bott.MaxQueue > limit {
		t.Fatalf("max queue %d bytes, want <= %d (pause threshold + window)",
			r.bott.MaxQueue, limit)
	}
	xofs := 0
	for _, p := range pauses.Recs {
		xofs += int(p.A)
	}
	if xofs == 0 {
		t.Fatal("bottleneck hook emitted no XOFs")
	}
}

// xofsTo keeps the XOFs delivered to host.
func (r *rig) xofsTo(host *netsim.Host) *netsimtest.Tap {
	return netsimtest.Attach(r.net, &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvDeliver), Host: host, Flags: netsim.FlagXOF})
}

func (r *rig) swHook() *Hook {
	for _, h := range r.hooks {
		if h.Port() == r.bott {
			return h
		}
	}
	return nil
}

// On an uncongested port every frame drains before the flow's next one
// arrives, so the hook starts and ends tracking the flow once per packet;
// that cycle must reuse its record, not allocate one (fig13's allocation
// otherwise follows the bytes a seed happens to offer: 11-21 MB over ten
// seeds, 6-8 MB with the record reused).
func TestHookIdlePortNoAlloc(t *testing.T) {
	r := newRig(256 << 10)
	h := r.swHook()
	pkt := &netsim.Packet{Flow: 7, Src: r.h1.ID(), Dst: r.h2.ID(), Payload: 1460}
	cycle := func() {
		h.OnEnqueue(pkt, r.bott)
		if h.FlowOcc(7) == 0 {
			t.Fatal("arrival not tracked")
		}
		r.s.Run() // the predicted departure
		if len(h.flows) != 0 {
			t.Fatal("drained flow still tracked")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%.0f allocs per arrive+drain cycle on an idle port, want 0", n)
	}
}

func TestTwoFlowSharing(t *testing.T) {
	r := newRig(256 << 10)
	const total = 50 << 20
	s1, _ := r.conn(1)
	s2, _ := r.conn(2)
	r.s.At(0, func() { s1.Open(); s1.Send(total) })
	r.s.At(0, func() { s2.Open(); s2.Send(total) })
	r.s.RunUntil(200 * sim.Millisecond)
	a1, a2 := s1.Acked(), s2.Acked()
	if a1 == 0 || a2 == 0 {
		t.Fatal("a flow starved completely")
	}
	// Per-flow thresholds pause the heavy hitter first, so sharing is much
	// tighter than drop-tail TCP's.
	ratio := float64(a1) / float64(a2)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("share ratio %.2f, want within 2x", ratio)
	}
	agg := float64(a1+a2) * 8 / r.s.Now().Seconds()
	if agg < 0.85e9 {
		t.Fatalf("aggregate %.1f Mbps, want > 850", agg/1e6)
	}
}

// xonDropper drops XON control packets while passing everything else —
// simulating a lost resume signal on the reverse path.
type xonDropper struct{ dropped int }

func (d *xonDropper) OnEnqueue(p *netsim.Packet, _ *netsim.Port) bool {
	if p.Flags&netsim.FlagXON != 0 {
		d.dropped++
		return false
	}
	return true
}

func TestPauseTimeoutRecoversLostXON(t *testing.T) {
	r := newRig(256 << 10)
	// The reverse port (sw->h1) carries only ACKs and XOF/XON — replacing
	// its BFC hook (which gates nothing there anyway) with an XON dropper
	// leaves pauses to expire by timeout alone.
	drop := &xonDropper{}
	r.sw.PortTo(r.h1.ID()).Hook = drop
	const total = 2 << 20
	snd, rcv := r.conn(1)
	done := false
	snd.Cfg.OnComplete = func() { done = true }
	r.s.At(0, func() {
		snd.Open()
		snd.Send(total)
		snd.Close()
	})
	r.s.RunUntil(5 * sim.Second)
	if drop.dropped == 0 {
		t.Fatal("scenario never generated an XON to lose")
	}
	if !done || rcv.Received() != total {
		t.Fatalf("transfer stuck after lost XONs: done=%v received=%d", done, rcv.Received())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int, sim.Time) {
		r := newRig(256 << 10)
		snd, _ := r.conn(1)
		xof := r.xofsTo(r.h1)
		r.s.At(0, func() { snd.Open(); snd.Send(5 << 20); snd.Close() })
		r.s.Run()
		return snd.Acked(), len(xof.Recs), snd.Stats().Completed
	}
	a1, p1, c1 := run()
	a2, p2, c2 := run()
	if a1 != a2 || p1 != p2 || c1 != c2 {
		t.Fatalf("same-seed runs diverged: (%d,%d,%v) vs (%d,%d,%v)", a1, p1, c1, a2, p2, c2)
	}
}
