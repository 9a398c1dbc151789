package core

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/netsim/netsimtest"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// rig: nSenders hosts -> sw -> recv host, all 1 Gbps, 5us links, TFC on sw.
type rig struct {
	s       *sim.Simulator
	net     *netsim.Network
	senders []*netsim.Host
	recv    *netsim.Host
	sw      *netsim.Switch
	ss      *SwitchState
	bott    *netsim.Port
}

func newRig(nSenders, bufBytes int, scfg SwitchConfig) *rig {
	s := sim.New(7)
	net := netsim.NewNetwork(s)
	sw := net.NewSwitch("sw")
	recv := net.NewHost("recv")
	cfg := netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond}
	r := &rig{s: s, net: net, recv: recv, sw: sw}
	recv.ProcJitter = 10 * sim.Microsecond
	for i := 0; i < nSenders; i++ {
		h := net.NewHost("h")
		h.ProcJitter = 10 * sim.Microsecond
		net.Connect(h, sw, cfg)
		r.senders = append(r.senders, h)
	}
	net.Connect(sw, recv, netsim.LinkConfig{
		Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: bufBytes,
	})
	net.ComputeRoutes()
	r.ss = Attach(sw, scfg)
	r.bott = sw.PortTo(recv.ID())
	return r
}

// tapPort keeps one port's records of the given kinds.
func tapPort(p *netsim.Port, ks ...netsim.EventKind) *netsimtest.Tap {
	return netsimtest.Attach(p.Network(), &netsimtest.Tap{Kinds: netsim.KindsOf(ks...), Port: p})
}

// lastE is the effective-flow count of a slot tap's last record (0 before
// any).
func lastE(slots *netsimtest.Tap) int64 {
	if len(slots.Recs) == 0 {
		return 0
	}
	return slots.Recs[len(slots.Recs)-1].B
}

// tapRMAs keeps the RMA ACKs delivered to s.
func tapRMAs(s *Sender) *netsimtest.Tap {
	return netsimtest.Attach(s.Cfg.Local.Network(), &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvDeliver),
		Host: s.Cfg.Local, Flow: s.Cfg.Flow, Flags: netsim.FlagRMA})
}

func (r *rig) conn(i int, flow netsim.FlowID, opts ...func(*Config)) (*Sender, *transport.Receiver) {
	cfg := Config{DialConfig: transport.DialConfig{Sim: r.s, Local: r.senders[i], Peer: r.recv, Flow: flow}}
	for _, o := range opts {
		o(&cfg)
	}
	return Dial(cfg)
}

func TestSingleFlowTransfer(t *testing.T) {
	r := newRig(1, 256<<10, SwitchConfig{})
	snd, rcv := r.conn(0, 1)
	rmas := tapRMAs(snd)
	done := false
	r.s.At(0, func() {
		snd.Cfg.OnComplete = func() { done = true }
		snd.Open()
		snd.Send(1 << 20)
		snd.Close()
	})
	r.s.Run()
	if !done {
		t.Fatal("transfer did not complete")
	}
	if rcv.Received() != 1<<20 {
		t.Fatalf("received %d, want %d", rcv.Received(), 1<<20)
	}
	if snd.Stats().Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0", snd.Stats().Timeouts)
	}
	if len(rmas.Recs) == 0 {
		t.Fatal("no RMA window updates received")
	}
}

func TestWindowAcquisitionBeforeData(t *testing.T) {
	// The sender must not transmit payload until the window-acquisition
	// probe's RMA returns (paper §4.6): verify the first data packet
	// leaves only after at least one RMA was received.
	r := newRig(1, 256<<10, SwitchConfig{})
	snd, _ := r.conn(0, 1)
	rmas := tapRMAs(snd)
	r.s.At(0, func() {
		snd.Open()
		snd.Send(100 * 1460)
	})
	// Step the simulation; whenever data is in flight, an RMA must have
	// already arrived.
	for i := 0; i < 2000 && snd.Acked() < 100*1460; i++ {
		r.s.RunUntil(r.s.Now() + 10*sim.Microsecond)
		if snd.SndNxt > 0 && len(rmas.Recs) == 0 {
			t.Fatal("data sent before window acquisition completed")
		}
	}
	if len(rmas.Recs) == 0 {
		t.Fatal("flow never acquired a window")
	}
}

func TestGoodputNearRho0(t *testing.T) {
	r := newRig(1, 256<<10, SwitchConfig{})
	snd, _ := r.conn(0, 1)
	r.s.At(0, func() {
		snd.Open()
		snd.Send(1 << 30)
	})
	r.s.RunUntil(500 * sim.Millisecond)
	// Skip the first 100ms of convergence.
	ackedAt100 := int64(0)
	r2 := newRig(1, 256<<10, SwitchConfig{})
	snd2, _ := r2.conn(0, 1)
	r2.s.At(0, func() { snd2.Open(); snd2.Send(1 << 30) })
	r2.s.RunUntil(100 * sim.Millisecond)
	ackedAt100 = snd2.Acked()
	r2.s.RunUntil(500 * sim.Millisecond)
	goodput := float64(snd2.Acked()-ackedAt100) * 8 / 0.4 // bits/s over [100,500]ms
	// Payload goodput target: rho0 * payload efficiency ~ 0.97*0.949 = 0.921.
	if goodput < 0.85e9 || goodput > 0.96e9 {
		t.Fatalf("steady goodput = %.1f Mbps, want ~900-940", goodput/1e6)
	}
	_ = snd.Acked()
}

func TestNearZeroQueue(t *testing.T) {
	r := newRig(4, 256<<10, SwitchConfig{})
	for i := 0; i < 4; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1))
		r.s.At(sim.Time(i)*10*sim.Millisecond, func() {
			snd.Open()
			snd.Send(1 << 30)
		})
	}
	r.s.RunUntil(200 * sim.Millisecond)
	// Paper Fig 8: TFC max queue ~9 KB (vs DCTCP 30KB, TCP 256KB).
	if r.bott.MaxQueue > 30<<10 {
		t.Fatalf("max queue = %d bytes, want near-zero (<30KB)", r.bott.MaxQueue)
	}
	if r.bott.Drops != 0 {
		t.Fatalf("drops = %d, want 0", r.bott.Drops)
	}
}

func TestTwoFlowFastConvergenceAndFairness(t *testing.T) {
	r := newRig(2, 256<<10, SwitchConfig{})
	s1, _ := r.conn(0, 1)
	s2, _ := r.conn(1, 2)
	r.s.At(0, func() { s1.Open(); s1.Send(1 << 30) })
	r.s.At(50*sim.Millisecond, func() { s2.Open(); s2.Send(1 << 30) })
	// Flow 2 should reach its fair window within a few RTTs (~100us each).
	r.s.RunUntil(52 * sim.Millisecond)
	w1, w2 := s1.Cwnd(), s2.Cwnd()
	if w2 == 0 {
		t.Fatal("flow 2 has no window 2ms after start")
	}
	ratio := float64(w1) / float64(w2)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("windows not converged 2ms after join: w1=%d w2=%d", w1, w2)
	}
	// Long-run byte fairness.
	base1, base2 := s1.Acked(), s2.Acked()
	r.s.RunUntil(152 * sim.Millisecond)
	d1, d2 := s1.Acked()-base1, s2.Acked()-base2
	fr := float64(d1) / float64(d2)
	if fr < 0.8 || fr > 1.25 {
		t.Fatalf("long-run shares unfair: %d vs %d", d1, d2)
	}
}

func TestEffectiveFlowCount(t *testing.T) {
	const n = 8
	r := newRig(n, 256<<10, SwitchConfig{})
	for i := 0; i < n; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1))
		r.s.At(0, func() { snd.Open(); snd.Send(1 << 30) })
	}
	slots := tapPort(r.bott, netsim.EvSlot)
	r.s.RunUntil(100 * sim.Millisecond)
	// All senders share one RTT, so E should approach n.
	if lastE := lastE(slots); lastE < n-2 || lastE > n+2 {
		t.Fatalf("measured E = %d, want ~%d", lastE, n)
	}
}

func TestInactiveFlowsExcluded(t *testing.T) {
	// 4 active + 4 flows that stop sending: E must fall back to ~4.
	const n = 8
	r := newRig(n, 256<<10, SwitchConfig{})
	var snds []*Sender
	for i := 0; i < n; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1))
		snds = append(snds, snd)
		r.s.At(0, func() { snd.Open(); snd.Send(2 << 20) })
	}
	// Keep flows 0-3 fed forever; flows 4-7 go silent after their 2MB.
	feed := func() {
		for i := 0; i < 4; i++ {
			snds[i].Send(2 << 20)
		}
	}
	for ms := 10; ms < 300; ms += 10 {
		r.s.At(sim.Time(ms)*sim.Millisecond, feed)
	}
	slots := tapPort(r.bott, netsim.EvSlot)
	r.s.RunUntil(250 * sim.Millisecond)
	if lastE := lastE(slots); lastE < 3 || lastE > 5 {
		t.Fatalf("E with 4 active + 4 silent flows = %d, want ~4", lastE)
	}
}

func TestRTTBConvergesToBaseRTT(t *testing.T) {
	r := newRig(2, 256<<10, SwitchConfig{})
	for i := 0; i < 2; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1))
		r.s.At(0, func() { snd.Open(); snd.Send(1 << 30) })
	}
	r.s.RunUntil(100 * sim.Millisecond)
	st := r.ss.PortState(r.bott)
	rttb := st.RTTB()
	// Base path RTT: data 2 hops (~12.3us tx + 5us prop each) plus ACK
	// return (~0.7us+5us each) ≈ 46us. rttb must be well under the
	// initial 160us and above the pure propagation floor.
	if rttb >= 160*sim.Microsecond {
		t.Fatalf("rttb never updated from init: %v", rttb)
	}
	if rttb < 20*sim.Microsecond || rttb > 100*sim.Microsecond {
		t.Fatalf("rttb = %v, want ~30-80us for this topology", rttb)
	}
}

func TestHighFanInNoLossWithDelayArbiter(t *testing.T) {
	// 100 concurrent senders, 64KB switch buffer: fair window ~0.13 MSS.
	// The ACK delay function must pace admissions so nothing drops
	// (paper Fig 12: TFC keeps ~0 loss at 100 senders; DCTCP/TCP collapse).
	const n = 100
	r := newRig(n, 64<<10, SwitchConfig{})
	holds := tapPort(r.bott, netsim.EvHold)
	done := 0
	for i := 0; i < n; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1), func(c *Config) {})
		snd.Cfg.OnComplete = func() { done++ }
		r.s.At(0, func() {
			snd.Open()
			snd.Send(64 << 10)
			snd.Close()
		})
	}
	r.s.RunUntil(2 * sim.Second)
	if r.bott.Drops != 0 {
		t.Fatalf("drops = %d with delay arbiter, want 0", r.bott.Drops)
	}
	if done != n {
		t.Fatalf("completed %d of %d flows", done, n)
	}
	if len(holds.Recs) == 0 {
		t.Fatal("delay arbiter never engaged despite sub-MSS windows")
	}
}

func TestHighFanInDropsWithoutDelayArbiter(t *testing.T) {
	// Ablation A2: same scenario with the delay function disabled must
	// overwhelm the 64KB buffer (every sender keeps >=1 MSS in flight).
	const n = 100
	r := newRig(n, 64<<10, SwitchConfig{DisableDelay: true})
	for i := 0; i < n; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1))
		r.s.At(0, func() {
			snd.Open()
			snd.Send(64 << 10)
			snd.Close()
		})
	}
	r.s.RunUntil(500 * sim.Millisecond)
	if r.bott.Drops == 0 {
		t.Fatal("expected drops without the delay function")
	}
}

func TestOnOffFlowReclaimsBandwidth(t *testing.T) {
	// One flow goes silent; the remaining flow's window should grow to
	// take over the freed capacity within a few slots (fast convergence
	// to efficiency — the D3 silent-flow problem TFC solves, §2).
	r := newRig(2, 256<<10, SwitchConfig{})
	s1, _ := r.conn(0, 1)
	s2, _ := r.conn(1, 2)
	r.s.At(0, func() { s1.Open(); s1.Send(1 << 30) })
	r.s.At(0, func() { s2.Open(); s2.Send(5 << 20) }) // finite: goes silent
	r.s.RunUntil(150 * sim.Millisecond)
	if s2.Acked() != 5<<20 {
		t.Fatalf("flow2 stalled at %d", s2.Acked())
	}
	base := s1.Acked()
	r.s.RunUntil(250 * sim.Millisecond)
	// Survivor must grow well past its former half share (~450 Mbps)
	// toward the single-flow rate (~800+ Mbps; the remaining gap to line
	// rate is the jitter-vs-rtt_b effect discussed in §4.5).
	goodput := float64(s1.Acked()-base) * 8 / 0.1
	if goodput < 0.70e9 {
		t.Fatalf("survivor goodput = %.1f Mbps, silent flow's share not reclaimed", goodput/1e6)
	}
}

// TestSlotRecordFields checks the EvSlot records of a loaded port: rtt_m
// (A) positive, E (B) at least 1, T (X) and W (Y) positive with W <= T,
// rho (Z) positive; and the base RTT estimate in (0, initRTTB].
func TestSlotRecordFields(t *testing.T) {
	r := newRig(1, 256<<10, SwitchConfig{})
	slots := tapPort(r.bott, netsim.EvSlot)
	snd, _ := r.conn(0, 1)
	r.s.At(0, func() { snd.Open(); snd.Send(10 << 20) })
	r.s.RunUntil(50 * sim.Millisecond)
	if len(slots.Recs) < 10 {
		t.Fatalf("only %d slots in 50ms", len(slots.Recs))
	}
	for _, ev := range slots.Recs {
		if ev.A <= 0 || ev.B < 1 || ev.X <= 0 || ev.Y <= 0 || ev.Z <= 0 {
			t.Fatalf("bad slot record: %+v", ev)
		}
		if ev.Y > ev.X {
			t.Fatalf("W > T: %+v", ev)
		}
	}
	if rttb := r.ss.PortState(r.bott).RTTB(); rttb <= 0 || rttb > initRTTB {
		t.Fatalf("rtt_b = %v, want in (0, %v]", rttb, initRTTB)
	}
}

func TestDelimiterFailover(t *testing.T) {
	// The delimiter flow finishes with a FIN; slots must keep ending
	// afterwards using a new delimiter.
	r := newRig(2, 256<<10, SwitchConfig{})
	s1, _ := r.conn(0, 1)
	s2, _ := r.conn(1, 2)
	// Flow 1 starts first (becomes delimiter) and ends quickly.
	r.s.At(0, func() { s1.Open(); s1.Send(1 << 20); s1.Close() })
	r.s.At(sim.Millisecond, func() { s2.Open(); s2.Send(1 << 30) })
	st := r.ss.PortState(r.bott)
	slots := tapPort(r.bott, netsim.EvSlot)
	r.s.RunUntil(50 * sim.Millisecond)
	slotsMid := len(slots.Recs)
	r.s.RunUntil(100 * sim.Millisecond)
	if len(slots.Recs) <= slotsMid {
		t.Fatal("slots stopped ending after delimiter flow finished")
	}
	if !st.hasDelim || st.delim != 2 {
		t.Fatalf("delimiter not failed over: hasDelim=%v delim=%d", st.hasDelim, st.delim)
	}
}

func TestDelimiterTimerRecoversFromSilence(t *testing.T) {
	// The delimiter goes silent without FIN (on-off). After 2^k*rtt the
	// switch must drop it and adopt the other flow.
	r := newRig(2, 256<<10, SwitchConfig{})
	s1, _ := r.conn(0, 1)
	s2, _ := r.conn(1, 2)
	r.s.At(0, func() { s1.Open(); s1.Send(1 << 20) }) // no Close: silent after 1MB
	r.s.At(sim.Millisecond, func() { s2.Open(); s2.Send(1 << 30) })
	st := r.ss.PortState(r.bott)
	r.s.RunUntil(200 * sim.Millisecond)
	if st.delim != 2 {
		t.Fatalf("delimiter = flow %d, want failover to flow 2", st.delim)
	}
	// Flow 2 should be running at (single-flow) full speed.
	base := s2.Acked()
	r.s.RunUntil(300 * sim.Millisecond)
	goodput := float64(s2.Acked()-base) * 8 / 0.1
	if goodput < 0.70e9 {
		t.Fatalf("goodput after delimiter recovery = %.1f Mbps", goodput/1e6)
	}
}

func TestDecouplingPreventsQueueFeedback(t *testing.T) {
	// Ablation A3: with rtt_m used for tokens (coupling), queueing delay
	// inflates tokens which inflates queues. Full TFC must show a smaller
	// max queue than the coupled variant.
	run := func(disable bool) float64 {
		r := newRig(4, 1<<20, SwitchConfig{DisableDecouple: disable})
		for i := 0; i < 4; i++ {
			snd, _ := r.conn(i, netsim.FlowID(i+1))
			r.s.At(0, func() { snd.Open(); snd.Send(1 << 30) })
		}
		// Compare steady state (after convergence), not cold-start spikes.
		r.s.RunUntil(150 * sim.Millisecond)
		var sum float64
		n := 0
		for r.s.Now() < 300*sim.Millisecond {
			r.s.RunUntil(r.s.Now() + 50*sim.Microsecond)
			sum += float64(r.bott.QueueBytes())
			n++
		}
		return sum / float64(n)
	}
	qFull, qCoupled := run(false), run(true)
	if qFull > qCoupled/2 {
		t.Fatalf("decoupling did not help: avg queue full=%.0f coupled=%.0f", qFull, qCoupled)
	}
}

func TestEmptyFlowCompletes(t *testing.T) {
	r := newRig(1, 256<<10, SwitchConfig{})
	snd, rcv := r.conn(0, 1)
	done := false
	r.s.At(0, func() {
		snd.Cfg.OnComplete = func() { done = true }
		snd.Open()
		snd.Close()
	})
	r.s.Run()
	if !done {
		t.Fatal("zero-byte flow did not complete")
	}
	if rcv.FinAt == 0 {
		t.Fatal("FIN missing")
	}
}

func TestPersistentOnDrain(t *testing.T) {
	r := newRig(1, 256<<10, SwitchConfig{})
	drains := 0
	snd, _ := r.conn(0, 1, func(c *Config) { c.OnDrain = func() { drains++ } })
	r.s.At(0, func() { snd.Open(); snd.Send(100 * 1460) })
	r.s.At(50*sim.Millisecond, func() { snd.Send(100 * 1460) })
	r.s.RunUntil(100 * sim.Millisecond)
	if drains != 2 {
		t.Fatalf("OnDrain fired %d times, want 2", drains)
	}
}

func TestTokenAdjustmentBoostsUnderutilizedLink(t *testing.T) {
	// Work-conserving core mechanism (§4.5): a port whose sole flow is
	// bottlenecked elsewhere should raise T above BDP so other flows can
	// use the slack. Simplest check: with adjustment on, a single flow
	// achieves ~rho0; with adjustment off it still works but utilization
	// must not exceed rho0 either; so instead verify T rises above
	// c*rtt_b when the measured utilization is low.
	r := newRig(2, 256<<10, SwitchConfig{})
	// Flow with a 100 Mbps "application limit": send small chunks spaced out.
	s1, _ := r.conn(0, 1)
	r.s.At(0, func() { s1.Open() })
	for us := 0; us < 200000; us += 1000 {
		r.s.At(sim.Time(us)*sim.Microsecond, func() { s1.Send(12500) }) // 100 Mbps
	}
	r.s.RunUntil(150 * sim.Millisecond)
	st := r.ss.PortState(r.bott)
	bdp := float64(netsim.Gbps) / 8 * st.RTTB().Seconds()
	if st.Tokens() < 1.5*bdp {
		t.Fatalf("tokens = %.0f, want boosted well above BDP %.0f on underutilized link",
			st.Tokens(), bdp)
	}
}
