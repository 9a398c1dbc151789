package core

import (
	"math/rand"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/netsim/netsimtest"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// chainRig: h1..hn -> s1 -> s2 -> recv, with the s2->recv link slower so
// that the path has two TFC switches and one true bottleneck.
type chainRig struct {
	s        *sim.Simulator
	senders  []*netsim.Host
	recv     *netsim.Host
	s1, s2   *netsim.Switch
	ss1, ss2 *SwitchState
	bott     *netsim.Port // s2 -> recv
	mid      *netsim.Port // s1 -> s2
}

func newChainRig(n int, bottRate netsim.Rate) *chainRig {
	s := sim.New(17)
	net := netsim.NewNetwork(s)
	s1 := net.NewSwitch("s1")
	s2 := net.NewSwitch("s2")
	recv := net.NewHost("recv")
	recv.ProcJitter = 10 * sim.Microsecond
	link := netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: 256 << 10, BufB: 256 << 10}
	r := &chainRig{s: s, recv: recv, s1: s1, s2: s2}
	for i := 0; i < n; i++ {
		h := net.NewHost("h")
		h.ProcJitter = 10 * sim.Microsecond
		net.Connect(h, s1, link)
		r.senders = append(r.senders, h)
	}
	net.Connect(s1, s2, link)
	net.Connect(s2, recv, netsim.LinkConfig{
		Rate: bottRate, Delay: 5 * sim.Microsecond, BufA: 256 << 10,
	})
	net.ComputeRoutes()
	r.ss1 = Attach(s1, SwitchConfig{})
	r.ss2 = Attach(s2, SwitchConfig{})
	r.bott = s2.PortTo(recv.ID())
	r.mid = s1.PortTo(s2.ID())
	return r
}

func TestPathMinimumWindow(t *testing.T) {
	// Two TFC switches on the path; the downstream 100 Mbps link is the
	// bottleneck. The window a sender receives must reflect the *minimum*
	// along the path, i.e. flows must settle at ~100 Mbps aggregate with
	// a near-empty bottleneck queue.
	r := newChainRig(2, 100*netsim.Mbps)
	var snds []*Sender
	for i, h := range r.senders {
		snd, _ := Dial(Config{DialConfig: transport.DialConfig{Sim: r.s, Local: h, Peer: r.recv, Flow: netsim.FlowID(i + 1)}})
		snds = append(snds, snd)
		r.s.At(0, func() { snd.Open(); snd.Send(1 << 30) })
	}
	r.s.RunUntil(200 * sim.Millisecond)
	var acked int64
	for _, snd := range snds {
		acked += snd.Acked()
	}
	// Skip first 50ms of convergence: measure [50,200].
	base := acked
	r.s.RunUntil(400 * sim.Millisecond)
	acked = 0
	for _, snd := range snds {
		acked += snd.Acked()
	}
	rate := float64(acked-base) * 8 / 0.2
	if rate < 70e6 || rate > 100e6 {
		t.Fatalf("aggregate %.1f Mbps, want ~85-97 (bottleneck is 100 Mbps)", rate/1e6)
	}
	if r.bott.Drops != 0 {
		t.Fatalf("drops = %d at the slow bottleneck", r.bott.Drops)
	}
	// The upstream (non-bottleneck) switch must not build a queue either:
	// windows are already clamped by the downstream stamp.
	if r.mid.MaxQueue > 64<<10 {
		t.Fatalf("mid-path queue grew to %d", r.mid.MaxQueue)
	}
}

// uniformLoss is a netsim.LossModel that loses each packet with
// probability p: one draw per packet from the port's loss stream.
type uniformLoss float64

func (p uniformLoss) Lose(r *rand.Rand) bool { return r.Float64() < float64(p) }

func TestTFCSurvivesRandomLoss(t *testing.T) {
	// Failure injection: 0.5% random loss on the bottleneck. TFC has no
	// loss-driven window, so throughput should stay high and transfers
	// complete via dupack retransmission (and rare RTOs).
	r := newRig(2, 256<<10, SwitchConfig{})
	r.bott.SetLoss(uniformLoss(0.005))
	var snds []*Sender
	done := 0
	for i := 0; i < 2; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1))
		snd.Cfg.OnComplete = func() { done++ }
		snds = append(snds, snd)
		r.s.At(0, func() {
			snd.Open()
			snd.Send(20 << 20)
			snd.Close()
		})
	}
	r.s.RunUntil(5 * sim.Second)
	if done != 2 {
		t.Fatalf("only %d of 2 flows completed under 0.5%% loss", done)
	}
	for _, snd := range snds {
		if snd.Stats().RtxBytes == 0 {
			t.Error("loss occurred but no retransmissions recorded")
		}
	}
}

// tapProbes keeps the RM packets of s's flow that its host sends, SYN and
// FIN aside; probes counts the window-acquisition probes among them, the
// zero-payload ones.
func tapProbes(s *Sender) *netsimtest.Tap {
	return netsimtest.Attach(s.Cfg.Local.Network(), &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvHostSend),
		Host: s.Cfg.Local, Flow: s.Cfg.Flow, Flags: netsim.FlagRM, NotFlags: netsim.FlagSYN | netsim.FlagFIN})
}

func probes(rms *netsimtest.Tap) (n int) {
	for _, r := range rms.Recs {
		if r.Packet.Payload == 0 {
			n++
		}
	}
	return n
}

func TestResumeProbeAfterIdle(t *testing.T) {
	// A flow idle for >> minRTT must re-acquire its window via a probe
	// instead of bursting the stale one.
	r := newRig(1, 256<<10, SwitchConfig{})
	snd, _ := r.conn(0, 1)
	rms := tapProbes(snd)
	r.s.At(0, func() { snd.Open(); snd.Send(1 << 20) })
	r.s.RunUntil(50 * sim.Millisecond)
	if snd.Acked() != 1<<20 {
		t.Fatal("first message did not complete")
	}
	probesBefore := probes(rms)
	// Resume after 50ms of silence.
	r.s.At(r.s.Now(), func() { snd.Send(1 << 20) })
	r.s.RunUntil(100 * sim.Millisecond)
	if n := probes(rms); n != probesBefore+1 {
		t.Fatalf("probes = %d, want %d (resume must re-acquire window)",
			n, probesBefore+1)
	}
	if snd.Acked() != 2<<20 {
		t.Fatal("second message did not complete")
	}
}

func TestNoProbeOnHotResume(t *testing.T) {
	// Back-to-back messages (gap << minRTT) must NOT pay the probe RTT.
	r := newRig(1, 256<<10, SwitchConfig{})
	var snd *Sender
	snd, _ = r.conn(0, 1, func(c *Config) {
		c.OnDrain = func() {
			if snd.Queued() < 10<<20 {
				snd.Send(1 << 20) // immediate re-feed
			}
		}
	})
	rms := tapProbes(snd)
	r.s.At(0, func() { snd.Open(); snd.Send(1 << 20) })
	r.s.RunUntil(200 * sim.Millisecond)
	if snd.Acked() != 10<<20 {
		t.Fatalf("acked %d, want 10MB", snd.Acked())
	}
	if n := probes(rms); n != 1 {
		t.Fatalf("probes = %d, want 1 (hot resumes must not probe)", n)
	}
}

func TestArbiterWireCostPacing(t *testing.T) {
	// Unit-level: with many sub-MSS windows, admissions must be paced at
	// rho0 * line rate in *wire* bytes — i.e. one grant per ~12.7us at
	// 1 Gbps with rho0 = 0.97, not one per 11.7us (payload-only).
	r := newRig(40, 256<<10, SwitchConfig{})
	holds := tapPort(r.bott, netsim.EvHold)
	for i := 0; i < 40; i++ {
		snd, _ := r.conn(i, netsim.FlowID(i+1))
		r.s.At(0, func() { snd.Open(); snd.Send(1 << 20) })
	}
	r.s.RunUntil(50 * sim.Millisecond)
	if len(holds.Recs) == 0 {
		t.Fatal("arbiter never engaged with 40 flows")
	}
	// Measure aggregate arrival rate over the next 50ms: must be <= rho0*c
	// (in wire bytes) with near-zero queue.
	base := r.bott.TxFrames
	r.s.RunUntil(100 * sim.Millisecond)
	frames := float64(r.bott.TxFrames-base) * (1538.0 / 1518.0) // approx wire
	rate := frames / 0.05                                       // bytes/s
	if rate > 0.99*125e6 {
		t.Fatalf("wire rate %.1f MB/s exceeds pace target", rate/1e6)
	}
	if r.bott.Drops != 0 {
		t.Fatal("paced regime must not drop")
	}
}

func TestStampTightensWithRunningCount(t *testing.T) {
	// min(W, T/e) stamping: a mid-slot surge of marked SYNs must tighten
	// subsequent stamps before the slot ends.
	r := newRig(1, 256<<10, SwitchConfig{})
	st := r.ss.PortState(r.bott)
	// Simulate a surge by feeding the port hook synthetic marked SYNs.
	wBefore := st.w
	for i := 0; i < 50; i++ {
		st.OnEnqueue(&netsim.Packet{
			Flow: netsim.FlowID(100 + i), Flags: netsim.FlagSYN | netsim.FlagRM,
			Window: netsim.WindowUnset,
		}, r.bott)
	}
	pkt := &netsim.Packet{
		Flow: 999, Payload: netsim.MSS, Window: netsim.WindowUnset,
	}
	st.OnEnqueue(pkt, r.bott)
	if float64(pkt.Window) > wBefore/10 {
		t.Fatalf("stamp %d not tightened after 50-flow surge (W was %.0f)",
			pkt.Window, wBefore)
	}
}

func TestAckDirectionUntouched(t *testing.T) {
	// Pure ACKs must pass TFC ports unmodified and uncounted.
	r := newRig(1, 256<<10, SwitchConfig{})
	st := r.ss.PortState(r.bott)
	aBefore := st.aCum
	ack := &netsim.Packet{Flow: 1, Flags: netsim.FlagACK, Window: 12345}
	st.OnEnqueue(ack, r.bott)
	if ack.Window != 12345 {
		t.Fatal("ACK window modified by data-path hook")
	}
	if st.aCum != aBefore {
		t.Fatal("ACK counted into arrival accounting")
	}
}

func TestDisableAdjustAblation(t *testing.T) {
	// A1: with adjustment off, T should pin at rho0*c*rtt_b; sanity-check
	// the flag plumbing (detailed behaviour covered by exp tests).
	r := newRig(1, 256<<10, SwitchConfig{DisableAdjust: true})
	snd, _ := r.conn(0, 1)
	r.s.At(0, func() { snd.Open(); snd.Send(10 << 20) })
	r.s.RunUntil(100 * sim.Millisecond)
	st := r.ss.PortState(r.bott)
	want := 0.97 * 125e6 * st.RTTB().Seconds()
	got := st.Tokens()
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("tokens %.0f, want pinned near rho0*BDP %.0f with adjustment off", got, want)
	}
}
