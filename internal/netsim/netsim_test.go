package netsim

import (
	"testing"
	"testing/quick"

	"tfcsim/internal/sim"
)

func TestFrameSizes(t *testing.T) {
	cases := []struct {
		payload     int
		frame, wire int
	}{
		{0, 64, 84},           // pure ACK: minimum frame
		{5, 64, 84},           // tiny payload still min frame
		{6, 64, 84},           // 6+58 = 64 exactly
		{7, 65, 85},           // just over min
		{MSS, 1518, 1538},     // full segment
		{2 * MSS, 2978, 2998}, // jumbo-ish
	}
	for _, c := range cases {
		p := &Packet{Payload: c.payload}
		if got := p.FrameBytes(); got != c.frame {
			t.Errorf("payload %d: FrameBytes = %d, want %d", c.payload, got, c.frame)
		}
		if got := p.WireBytes(); got != c.wire {
			t.Errorf("payload %d: WireBytes = %d, want %d", c.payload, got, c.wire)
		}
	}
}

func TestRateMath(t *testing.T) {
	if got := Gbps.TxTime(125); got != sim.Microsecond {
		t.Errorf("1Gbps tx of 125B = %v, want 1us", got)
	}
	if got := Rate(10 * Gbps).BytesPerSecond(); got != 1.25e9 {
		t.Errorf("10Gbps = %v B/s, want 1.25e9", got)
	}
	if got := Gbps.BytesIn(sim.Millisecond); got != 125000 {
		t.Errorf("1Gbps in 1ms = %v bytes, want 125000", got)
	}
}

func TestRateString(t *testing.T) {
	if Gbps.String() != "1Gbps" || (100*Mbps).String() != "100Mbps" {
		t.Errorf("Rate.String: %s %s", Gbps, 100*Mbps)
	}
}

func TestFlagString(t *testing.T) {
	f := FlagSYN | FlagRM
	if f.String() != "SYN|RM" {
		t.Errorf("Flag string = %q", f.String())
	}
	if Flag(0).String() != "0" {
		t.Errorf("zero flag string = %q", Flag(0).String())
	}
}

// sink is a minimal endpoint that records delivered packets — by value: a
// *Packet returns to the pool when Deliver returns.
type sink struct {
	pkts []Packet
	at   []sim.Time
	s    *sim.Simulator
}

func (k *sink) Deliver(p *Packet) {
	k.pkts = append(k.pkts, *p)
	k.at = append(k.at, k.s.Now())
}

// buildPair wires h1 -- sw -- h2 with the given link config.
func buildPair(s *sim.Simulator, cfg LinkConfig) (*Network, *Host, *Host, *Switch) {
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	return net, h1, h2, sw
}

func TestEndToEndDelivery(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, _ := buildPair(s, LinkConfig{Rate: Gbps, Delay: 5 * sim.Microsecond})
	k := &sink{s: s}
	h2.Register(7, k)
	pkt := &Packet{Flow: 7, Src: h1.ID(), Dst: h2.ID(), Payload: MSS}
	s.At(0, func() { h1.Send(pkt) })
	s.Run()
	if len(k.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(k.pkts))
	}
	// Two store-and-forward hops: 2 * (tx 1538B wire @1G = 12.304us + 5us prop)
	want := 2 * (Gbps.TxTime(1538) + 5*sim.Microsecond)
	if k.at[0] != want {
		t.Errorf("arrival at %v, want %v", k.at[0], want)
	}
	if k.pkts[0].Hops != 2 {
		t.Errorf("hops = %d, want 2", k.pkts[0].Hops)
	}
}

func TestSerializationOrderingAndQueueing(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	k := &sink{s: s}
	h2.Register(1, k)
	// Burst of 10 MSS packets back to back: host NIC serializes them.
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Seq: int64(i), Payload: MSS})
		}
	})
	s.Run()
	if len(k.pkts) != 10 {
		t.Fatalf("delivered %d, want 10", len(k.pkts))
	}
	for i, p := range k.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("out of order: pkt %d has seq %d", i, p.Seq)
		}
	}
	// Inter-arrival of the last packets equals serialization time (pipeline full).
	gap := k.at[9] - k.at[8]
	if want := Gbps.TxTime(1538); gap != want {
		t.Errorf("steady-state inter-arrival %v, want %v", gap, want)
	}
	out := sw.PortTo(h2.ID())
	if out.TxPackets != 10 {
		t.Errorf("switch forwarded %d, want 10", out.TxPackets)
	}
}

func TestDropTail(t *testing.T) {
	s := sim.New(1)
	// Switch egress buffer fits exactly 3 MSS frames (3*1518=4554).
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, LinkConfig{Rate: 100 * Mbps, Delay: sim.Microsecond, BufA: 3 * 1518})
	net.ComputeRoutes()
	k := &sink{s: s}
	h2.Register(1, k)
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Seq: int64(i), Payload: MSS})
		}
	})
	s.Run()
	out := sw.PortTo(h2.ID())
	if out.Drops == 0 {
		t.Fatal("expected drop-tail drops on slow egress")
	}
	if got := int64(len(k.pkts)) + out.Drops; got != 10 {
		t.Fatalf("delivered+dropped = %d, want 10", got)
	}
	if out.MaxQueue > 3*1518 {
		t.Errorf("queue exceeded buffer: %d", out.MaxQueue)
	}
}

func TestUnlimitedBufferNoDrops(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: 10 * Mbps, Delay: sim.Microsecond})
	k := &sink{s: s}
	h2.Register(1, k)
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: MSS})
		}
	})
	s.Run()
	if len(k.pkts) != 100 {
		t.Fatalf("delivered %d, want 100 with unlimited buffers", len(k.pkts))
	}
	if sw.PortTo(h2.ID()).Drops != 0 {
		t.Fatal("unexpected drops")
	}
}

type dropAllHook struct{ n int }

func (d *dropAllHook) OnEnqueue(*Packet, *Port) bool { d.n++; return false }

func TestPortHookDrop(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	hook := &dropAllHook{}
	sw.PortTo(h2.ID()).Hook = hook
	k := &sink{s: s}
	h2.Register(1, k)
	s.At(0, func() { h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: MSS}) })
	s.Run()
	if hook.n != 1 || len(k.pkts) != 0 {
		t.Fatalf("hook ran %d times, delivered %d; want 1, 0", hook.n, len(k.pkts))
	}
	if sw.PortTo(h2.ID()).Drops != 1 {
		t.Fatal("hook drop not counted")
	}
}

type markHook struct{}

func (markHook) OnEnqueue(p *Packet, _ *Port) bool { p.Flags |= FlagCE; return true }

func TestPortHookModify(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	sw.PortTo(h2.ID()).Hook = markHook{}
	k := &sink{s: s}
	h2.Register(1, k)
	s.At(0, func() { h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: MSS}) })
	s.Run()
	if len(k.pkts) != 1 || k.pkts[0].Flags&FlagCE == 0 {
		t.Fatal("hook modification lost")
	}
}

func TestMultiHopRouting(t *testing.T) {
	// h1 - s1 - s2 - s3 - h2 line topology.
	s := sim.New(1)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	s1 := net.NewSwitch("s1")
	s2 := net.NewSwitch("s2")
	s3 := net.NewSwitch("s3")
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	net.Connect(h1, s1, cfg)
	net.Connect(s1, s2, cfg)
	net.Connect(s2, s3, cfg)
	net.Connect(s3, h2, cfg)
	net.ComputeRoutes()
	k := &sink{s: s}
	h2.Register(1, k)
	s.At(0, func() { h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: MSS}) })
	s.Run()
	if len(k.pkts) != 1 || k.pkts[0].Hops != 4 {
		t.Fatalf("delivery over 4 hops failed: %+v", k.pkts)
	}
	// Reverse direction too.
	k1 := &sink{s: s}
	h1.Register(2, k1)
	s.At(s.Now(), func() { h2.Send(&Packet{Flow: 2, Src: h2.ID(), Dst: h1.ID(), Payload: 100}) })
	s.Run()
	if len(k1.pkts) != 1 {
		t.Fatal("reverse delivery failed")
	}
}

func TestTreeRouting(t *testing.T) {
	// Classic 2-level tree: core with 3 leaf switches, 3 hosts each
	// (the paper's Fig 4 testbed shape). Every host pair must be reachable.
	s := sim.New(1)
	net := NewNetwork(s)
	core := net.NewSwitch("core")
	cfg := LinkConfig{Rate: Gbps, Delay: sim.Microsecond}
	var hosts []*Host
	for l := 0; l < 3; l++ {
		leaf := net.NewSwitch("leaf")
		net.Connect(leaf, core, cfg)
		for j := 0; j < 3; j++ {
			h := net.NewHost("h")
			net.Connect(h, leaf, cfg)
			hosts = append(hosts, h)
		}
	}
	net.ComputeRoutes()
	delivered := 0
	for i, src := range hosts {
		for j, dst := range hosts {
			if i == j {
				continue
			}
			k := &sink{s: s}
			fid := FlowID(i*100 + j)
			dst.Register(fid, k)
			src.Send(&Packet{Flow: fid, Src: src.ID(), Dst: dst.ID(), Payload: 10})
			s.Run()
			if len(k.pkts) == 1 {
				delivered++
			}
		}
	}
	if delivered != 9*8 {
		t.Fatalf("delivered %d of %d host pairs", delivered, 9*8)
	}
}

// Property: conservation — for random bursts, delivered + dropped == sent.
func TestQuickConservation(t *testing.T) {
	f := func(sizes []uint16, buf uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 200 {
			sizes = sizes[:200]
		}
		s := sim.New(3)
		net := NewNetwork(s)
		h1 := net.NewHost("h1")
		h2 := net.NewHost("h2")
		sw := net.NewSwitch("sw")
		net.Connect(h1, sw, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
		net.Connect(sw, h2, LinkConfig{
			Rate: 100 * Mbps, Delay: sim.Microsecond,
			BufA: int(buf)%20000 + MinFrameBytes + HeaderBytes,
		})
		net.ComputeRoutes()
		k := &sink{s: s}
		h2.Register(1, k)
		for _, raw := range sizes {
			pay := int(raw) % MSS
			h1.Send(&Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: pay})
		}
		s.Run()
		out := sw.PortTo(h2.ID())
		return int64(len(k.pkts))+out.Drops == int64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowUnsetSentinel(t *testing.T) {
	if WindowUnset < int64(100*Gbps/8) {
		t.Fatal("WindowUnset must exceed any plausible BDP in bytes")
	}
}

func TestTxTimeOverflow(t *testing.T) {
	// Regression: the old int64 form (n*8*Second/r) overflowed for
	// n ≳ 1.07 GB and returned a negative delay, which a pacing loop would
	// treat as "transmit instantly".
	cases := []struct {
		r    Rate
		n    int
		want sim.Time
	}{
		// In-range results must stay bit-identical to the int64 math.
		{Gbps, 125, sim.Microsecond},
		{10 * Gbps, 1538, 1230},
		// 2 GiB at 10 Gbps: exact answer 2^31·8·1e9/1e10 = 1717986918.4 ns,
		// truncated. The old arithmetic wrapped negative here.
		{10 * Gbps, 2 << 30, 1717986918},
		// 100 GiB at 1 Gbps ≈ 859 s: far past the old overflow point.
		{Gbps, 100 << 30, sim.Time(uint64(100<<30) * 8)},
		{Gbps, 0, 0},
		{0, 1500, 0},
		{Gbps, -5, 0},
	}
	for _, c := range cases {
		if got := c.r.TxTime(c.n); got != c.want {
			t.Errorf("TxTime(%v, %d) = %d, want %d", c.r, c.n, got, c.want)
		}
		if got := c.r.TxTime(c.n); got < 0 {
			t.Errorf("TxTime(%v, %d) went negative: %d", c.r, c.n, got)
		}
	}
	// A quotient beyond int64 saturates rather than wrapping.
	if got := Rate(1).TxTime(1 << 62); got != sim.Time(1<<63-1) {
		t.Errorf("saturation case = %d, want MaxInt64", got)
	}
}

func TestFlagNamesComplete(t *testing.T) {
	// flagNames is the display table behind Flag.String; every defined
	// constant must appear exactly once and in bit order, or String output
	// silently drops flags.
	all := []struct {
		bit  Flag
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRM, "RM"},
		{FlagRMA, "RMA"}, {FlagECT, "ECT"}, {FlagCE, "CE"}, {FlagECE, "ECE"},
		{FlagCRD, "CRD"}, {FlagXOF, "XOF"}, {FlagXON, "XON"},
	}
	if len(flagNames) != len(all) {
		t.Fatalf("flagNames has %d entries, want %d", len(flagNames), len(all))
	}
	var prev Flag
	for i, want := range all {
		got := flagNames[i]
		if got.bit != want.bit || got.name != want.name {
			t.Errorf("flagNames[%d] = {%d,%q}, want {%d,%q}",
				i, got.bit, got.name, want.bit, want.name)
		}
		if got.bit <= prev {
			t.Errorf("flagNames[%d] out of bit order", i)
		}
		prev = got.bit
		if s := got.bit.String(); s != want.name {
			t.Errorf("(%q).String() = %q", want.name, s)
		}
	}
	// Every single-bit value up to the highest defined flag must render as
	// something other than "0" (i.e. no constant is missing from the table).
	for b := Flag(1); b <= FlagXON; b <<= 1 {
		if b.String() == "0" {
			t.Errorf("flag bit %#x missing from flagNames", uint16(b))
		}
	}
}

func TestPacketPoolRoundTrip(t *testing.T) {
	// A delivered packet's memory is reused by the next NewPacket, and
	// release zeroes it so no stale header fields leak.
	s := sim.New(1)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	net.Connect(h1, h2, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	net.ComputeRoutes()
	got := 0
	h2.Register(7, deliverFunc(func(p *Packet) { got += p.Payload }))

	p1 := net.NewPacket()
	p1.Flow, p1.Src, p1.Dst, p1.Payload = 7, h1.ID(), h2.ID(), 1000
	p1.Seq, p1.Window = 555, 999
	h1.Send(p1)
	s.Run()
	if got != 1000 {
		t.Fatalf("delivered %d bytes, want 1000", got)
	}

	p2 := net.NewPacket()
	if p2 != p1 {
		t.Fatal("pool did not reuse the released packet")
	}
	if *p2 != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *p2)
	}
}

type deliverFunc func(*Packet)

func (f deliverFunc) Deliver(p *Packet) { f(p) }
