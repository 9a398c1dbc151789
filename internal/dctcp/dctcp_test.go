package dctcp

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
)

func TestKFor(t *testing.T) {
	if KFor(netsim.Gbps) != DefaultK1G {
		t.Fatalf("K@1G = %d", KFor(netsim.Gbps))
	}
	if KFor(10*netsim.Gbps) != DefaultK10G {
		t.Fatalf("K@10G = %d", KFor(10*netsim.Gbps))
	}
	if KFor(100*netsim.Mbps) != DefaultK1G {
		t.Fatalf("K below 10G should use the 1G threshold")
	}
}

// marks is a probe that counts CE marks (EvMark records).
type marks int64

func (m *marks) Observe(ev netsim.Event) {
	if ev.Kind == netsim.EvMark {
		*m++
	}
}

func TestMarkHookThreshold(t *testing.T) {
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	net.Connect(h1, sw, netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond})
	net.Connect(sw, h2, netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond})
	net.ComputeRoutes()
	port := sw.PortTo(h2.ID())
	var marked marks
	net.Probe = &marked
	hook := &MarkHook{K: 3000}
	// Empty queue: no mark.
	p := &netsim.Packet{Flags: netsim.FlagECT, Payload: netsim.MSS}
	if !hook.OnEnqueue(p, port) || p.Flags&netsim.FlagCE != 0 {
		t.Fatal("marked below threshold")
	}
	// Fill the queue past K by pausing the port: enqueue while busy.
	// Simulate by direct queue occupancy: enqueue packets back to back.
	for i := 0; i < 4; i++ {
		port.Enqueue(&netsim.Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: netsim.MSS})
	}
	if port.QueueBytes() < 3000 {
		t.Skip("could not build queue in this setup")
	}
	p2 := &netsim.Packet{Flags: netsim.FlagECT, Payload: netsim.MSS}
	hook.OnEnqueue(p2, port)
	if p2.Flags&netsim.FlagCE == 0 {
		t.Fatal("not marked above threshold")
	}
	if marked != 1 {
		t.Fatalf("marks = %d, want 1", marked)
	}
}

func TestMarkHookIgnoresNonECT(t *testing.T) {
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	net.Connect(h1, sw, netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond})
	net.Connect(sw, h2, netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond})
	net.ComputeRoutes()
	port := sw.PortTo(h2.ID())
	hook := &MarkHook{K: 0}                  // always above threshold
	p := &netsim.Packet{Payload: netsim.MSS} // no ECT
	hook.OnEnqueue(p, port)
	if p.Flags&netsim.FlagCE != 0 {
		t.Fatal("non-ECT packet marked")
	}
}

func TestAttachMarkingCoversAllPorts(t *testing.T) {
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	sw := net.NewSwitch("sw")
	for i := 0; i < 4; i++ {
		h := net.NewHost("h")
		net.Connect(h, sw, netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond})
	}
	net.ComputeRoutes()
	hooks := AttachMarking(sw, 1000)
	if len(hooks) != 4 {
		t.Fatalf("hooks = %d, want 4", len(hooks))
	}
	for _, p := range sw.Ports() {
		if p.Hook == nil {
			t.Fatal("port without marking hook")
		}
	}
}

func TestDCTCPQueueBoundedNearK(t *testing.T) {
	// End-to-end: a DCTCP long flow through a 1G bottleneck keeps the
	// queue oscillating around K, far below the 256KB buffer TCP fills.
	s := sim.New(5)
	net := netsim.NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	net.Connect(h1, sw, netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 5 * sim.Microsecond})
	net.Connect(sw, h2, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: 256 << 10})
	net.ComputeRoutes()
	AttachMarking(sw, DefaultK1G)
	snd, rcv := Dial(tcp.Config{DialConfig: transport.DialConfig{Sim: s, Local: h1, Peer: h2, Flow: 1}})
	s.At(0, func() { snd.Open(); snd.Send(100 << 20) })
	s.RunUntil(500 * sim.Millisecond)
	port := sw.PortTo(h2.ID())
	// Steady state queue should stay in the K neighbourhood.
	if port.MaxQueue > 128<<10 {
		t.Fatalf("DCTCP max queue %dKB, want bounded near K=32KB", port.MaxQueue>>10)
	}
	if rcv.Received() < 40<<20 {
		t.Fatalf("throughput too low: %dMB in 500ms", rcv.Received()>>20)
	}
	if port.Drops != 0 {
		t.Fatalf("DCTCP dropped %d with marking active", port.Drops)
	}
}

func TestDCTCPVsTCPQueueComparison(t *testing.T) {
	run := func(dctcp bool) int {
		s := sim.New(5)
		net := netsim.NewNetwork(s)
		h1 := net.NewHost("h1")
		h2 := net.NewHost("h2")
		sw := net.NewSwitch("sw")
		net.Connect(h1, sw, netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 5 * sim.Microsecond})
		net.Connect(sw, h2, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: 256 << 10})
		net.ComputeRoutes()
		cfg := tcp.Config{DialConfig: transport.DialConfig{Sim: s, Local: h1, Peer: h2, Flow: 1}}
		var snd *tcp.Sender
		if dctcp {
			AttachMarking(sw, DefaultK1G)
			snd, _ = Dial(cfg)
		} else {
			snd, _ = tcp.Dial(cfg)
		}
		s.At(0, func() { snd.Open(); snd.Send(100 << 20) })
		// Measure steady-state queue (skip slow-start transient).
		s.RunUntil(300 * sim.Millisecond)
		return sw.PortTo(h2.ID()).QueueBytes()
	}
	qd, qt := run(true), run(false)
	if qd >= qt {
		t.Fatalf("DCTCP steady queue %d not below TCP %d", qd, qt)
	}
}
