package netsim

import (
	"testing"

	"tfcsim/internal/sim"
)

// diamond builds h1 - s1 - {a, b} - s2 - h2: two equal-cost paths.
func diamond(s *sim.Simulator) (*Network, *Host, *Host, *Switch, *Switch, *Switch, *Switch) {
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	s1 := net.NewSwitch("s1")
	s2 := net.NewSwitch("s2")
	a := net.NewSwitch("a")
	b := net.NewSwitch("b")
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	net.Connect(h1, s1, cfg)
	net.Connect(s1, a, cfg)
	net.Connect(s1, b, cfg)
	net.Connect(a, s2, cfg)
	net.Connect(b, s2, cfg)
	net.Connect(s2, h2, cfg)
	net.ComputeRoutes()
	return net, h1, h2, s1, s2, a, b
}

func TestECMPEqualCostSetsDiscovered(t *testing.T) {
	s := sim.New(1)
	_, _, h2, s1, _, _, _ := diamond(s)
	ports := s1.PortsTo(h2.ID())
	if len(ports) != 2 {
		t.Fatalf("s1 has %d equal-cost ports to h2, want 2", len(ports))
	}
}

func TestECMPFlowConsistency(t *testing.T) {
	// Every packet of a flow must take the same path; distinct flows
	// should spread across both.
	s := sim.New(1)
	_, _, h2, s1, _, _, _ := diamond(s)
	used := map[*Port]int{}
	for f := FlowID(1); f <= 64; f++ {
		p := s1.PortFor(f, h2.ID())
		if p2 := s1.PortFor(f, h2.ID()); p2 != p {
			t.Fatal("flow hashing not deterministic")
		}
		used[p]++
	}
	if len(used) != 2 {
		t.Fatalf("flows used %d paths, want 2", len(used))
	}
	for p, n := range used {
		if n < 16 {
			t.Errorf("path %s got only %d of 64 flows (poor spreading)", p.Label, n)
		}
	}
}

func TestECMPDeliveryAndNoReordering(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, _, _, _, _ := diamond(s)
	k := &sink{s: s}
	h2.Register(5, k)
	s.At(0, func() {
		for i := 0; i < 50; i++ {
			h1.Send(&Packet{Flow: 5, Src: h1.ID(), Dst: h2.ID(), Seq: int64(i), Payload: MSS})
		}
	})
	s.Run()
	if len(k.pkts) != 50 {
		t.Fatalf("delivered %d, want 50", len(k.pkts))
	}
	for i, p := range k.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("reordered: pkt %d has seq %d (single flow must stay on one path)", i, p.Seq)
		}
	}
}

func TestECMPSpreadsLoad(t *testing.T) {
	// Many flows: both middle switches should carry traffic.
	s := sim.New(1)
	_, h1, h2, _, _, a, b := diamond(s)
	for f := FlowID(1); f <= 32; f++ {
		fl := f
		k := &sink{s: s}
		h2.Register(fl, k)
		s.At(0, func() {
			h1.Send(&Packet{Flow: fl, Src: h1.ID(), Dst: h2.ID(), Payload: MSS})
		})
	}
	s.Run()
	ta := a.Ports()[1].TxPackets // a -> s2
	tb := b.Ports()[1].TxPackets // b -> s2
	if ta == 0 || tb == 0 {
		t.Fatalf("load not spread: a=%d b=%d", ta, tb)
	}
	if ta+tb != 32 {
		t.Fatalf("total forwarded %d, want 32", ta+tb)
	}
}

func TestLossInjection(t *testing.T) {
	s := sim.New(3)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	out := sw.PortTo(h2.ID())
	out.SetLoss(UniformLoss(0.3))
	k := &sink{s: s}
	h2.Register(1, k)
	const n = 2000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: 100})
		}
	})
	s.Run()
	got := len(k.pkts)
	if got < int(0.6*n) || got > int(0.8*n) {
		t.Fatalf("delivered %d of %d with 30%% loss, want ~70%%", got, n)
	}
	if int64(got)+out.Drops != n {
		t.Fatal("conservation violated under loss injection")
	}
}

func TestHostJitterPreservesOrder(t *testing.T) {
	s := sim.New(9)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	h1.ProcJitter = 50 * sim.Microsecond
	k := &sink{s: s}
	h2.Register(1, k)
	// Spaced-out sends (NIC idle between them): each draws fresh jitter,
	// yet FIFO order must hold.
	for i := 0; i < 100; i++ {
		seq := int64(i)
		s.At(sim.Time(i)*20*sim.Microsecond, func() {
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Seq: seq, Payload: 100})
		})
	}
	s.Run()
	if len(k.pkts) != 100 {
		t.Fatalf("delivered %d", len(k.pkts))
	}
	for i, p := range k.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("jitter reordered packets: pos %d seq %d", i, p.Seq)
		}
	}
}

func TestHostJitterDoesNotThrottleLineRate(t *testing.T) {
	// A back-to-back burst keeps the NIC pipeline busy: jitter must not
	// reduce throughput below line rate.
	s := sim.New(9)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	h1.ProcJitter = 50 * sim.Microsecond
	k := &sink{s: s}
	h2.Register(1, k)
	const n = 1000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: MSS})
		}
	})
	s.Run()
	elapsed := k.at[len(k.at)-1] - k.at[0]
	perPkt := elapsed / sim.Time(n-1)
	want := Gbps.TxTime(1538)
	if perPkt > want+want/10 {
		t.Fatalf("jitter throttled line rate: %v per packet, want ~%v", perPkt, want)
	}
}

func TestJitterStatisticalShape(t *testing.T) {
	// Capped exponential: most delays tiny, none beyond the cap.
	s := sim.New(5)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	h1.ProcJitter = 40 * sim.Microsecond
	k := &sink{s: s}
	h2.Register(1, k)
	base := 2*(Gbps.TxTime(84)+sim.Microsecond) + 2 // unloaded path time for 100B... measured empirically below
	_ = base
	var sendTimes []sim.Time
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * 200 * sim.Microsecond
		sendTimes = append(sendTimes, at)
		s.At(at, func() {
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: 26}) // 84B frame
		})
	}
	s.Run()
	if len(k.pkts) != 500 {
		t.Fatalf("delivered %d", len(k.pkts))
	}
	// Delay beyond the minimum observed = jitter draw.
	minLat := sim.Time(1 << 62)
	for i := range k.at {
		if l := k.at[i] - sendTimes[i]; l < minLat {
			minLat = l
		}
	}
	small, over := 0, 0
	for i := range k.at {
		j := k.at[i] - sendTimes[i] - minLat
		if j <= 10*sim.Microsecond {
			small++
		}
		if j > 40*sim.Microsecond {
			over++
		}
	}
	if over != 0 {
		t.Errorf("%d jitter draws exceeded the cap", over)
	}
	if small < 300 {
		t.Errorf("only %d/500 draws small; distribution should be mostly-small", small)
	}
}

// A switch that needs more distinct port sets than its uint16 route index
// can address must fail construction loudly, never wrap around to another
// destination's set.
func TestRouteSetIndexOverflowPanics(t *testing.T) {
	net := NewNetwork(sim.New(1))
	sw := net.NewSwitch("sw")
	h := net.NewHost("h")
	out, _ := net.Connect(sw, h, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	sw.routeSets = make([][]*Port, maxRouteSets)
	defer func() {
		if recover() == nil {
			t.Fatal("interning route set 65537 did not panic")
		}
	}()
	sw.internRouteSet([]*Port{out})
}
