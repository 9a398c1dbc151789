package netsim

// Tests for the wire-level fault machinery: link down/up (the queue is
// kept, a frame mid-serialization is lost), loss injection ordering
// relative to port hooks, fault windows under steady traffic with the
// EvLink/EvLoss records they emit, and the Gilbert–Elliott loss model.

import (
	"math/rand"
	"testing"

	"tfcsim/internal/sim"
)

// countHook counts OnEnqueue invocations (standing in for TFC's arrival
// counter / DCTCP's ECN marker).
type countHook struct{ seen int }

func (c *countHook) OnEnqueue(pkt *Packet, port *Port) bool { c.seen++; return true }

func mkPkt(h1, h2 *Host, seq int64) *Packet {
	return &Packet{Flow: 7, Src: h1.ID(), Dst: h2.ID(), Seq: seq, Payload: MSS}
}

func TestLossAppliedBeforeHook(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	hook := &countHook{}
	out.Hook = hook
	out.SetLoss(UniformLoss(1)) // every packet is lost on the wire
	k := &sink{s: s}
	h2.Register(7, k)
	for i := 0; i < 5; i++ {
		pkt := mkPkt(h1, h2, int64(i)*MSS)
		s.At(sim.Time(i)*100*sim.Microsecond, func() { h1.Send(pkt) })
	}
	s.Run()
	if len(k.pkts) != 0 {
		t.Fatalf("delivered %d packets through total wire loss", len(k.pkts))
	}
	if out.Drops != 5 {
		t.Fatalf("drops = %d, want 5", out.Drops)
	}
	// The wire loses the packet before the port sees it: the hook (which
	// models arrival accounting at the port) must observe nothing.
	if hook.seen != 0 {
		t.Fatalf("hook observed %d packets that the wire lost", hook.seen)
	}
}

func TestPortDownDropsAndPreservesQueue(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	// Three frames at the output port: f0 starts serializing (12.3us at
	// 1G), f1 and f2 queue behind it. The cut at 5us loses f0 mid-frame;
	// f1 and f2 are preserved and drain after SetUp.
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			out.Enqueue(mkPkt(h1, h2, int64(i)*MSS))
		}
	})
	downAt := 5 * sim.Microsecond
	s.At(downAt, out.SetDown)
	s.At(downAt, func() {
		if !out.Down() {
			t.Error("port not down after SetDown")
		}
	})
	lost := mkPkt(h1, h2, 100*MSS)
	s.At(downAt+5*sim.Microsecond, func() { out.Enqueue(lost) })
	s.At(sim.Millisecond, out.SetUp)
	s.Run()
	// Dropped: f0 (cut mid-serialization) and the outage-time enqueue.
	if out.Drops != 2 {
		t.Fatalf("drops = %d, want 2", out.Drops)
	}
	var got []int64
	for _, p := range k.pkts {
		got = append(got, p.Seq)
	}
	if len(got) != 2 || got[0] != MSS || got[1] != 2*MSS {
		t.Fatalf("delivered seqs %v, want [MSS 2*MSS] after SetUp", got)
	}
	if k.at[0] <= sim.Millisecond {
		t.Fatalf("preserved frame delivered at %v, before link restore", k.at[0])
	}
}

func TestPortDownCutsInFlightFrame(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	s.At(0, func() { out.Enqueue(mkPkt(h1, h2, 0)) })
	// Cut the link mid-frame and restore it before serialization would
	// have finished: the frame is lost anyway.
	s.At(5*sim.Microsecond, out.SetDown)
	s.At(6*sim.Microsecond, out.SetUp)
	s.Run()
	if len(k.pkts) != 0 {
		t.Fatal("frame mid-serialization at cut time was delivered")
	}
	if out.Drops != 1 {
		t.Fatalf("drops = %d, want 1", out.Drops)
	}
}

// faultLog is a Probe that keeps the fault transitions (EvLink, EvLoss).
type faultLog struct{ evs []Event }

func (l *faultLog) Observe(ev Event) {
	if ev.Kind == EvLink || ev.Kind == EvLoss {
		l.evs = append(l.evs, ev)
	}
}

func sendEvery(s *sim.Simulator, h1, h2 *Host, n int, gap sim.Time) {
	for i := 0; i < n; i++ {
		pkt := mkPkt(h1, h2, int64(i)*MSS)
		s.At(sim.Time(i)*gap, func() { h1.Send(pkt) })
	}
}

func TestLinkDownWindow(t *testing.T) {
	s := sim.New(1)
	net, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	log := &faultLog{}
	net.Probe = log
	s.At(1*sim.Millisecond, out.SetDown)
	s.At(3*sim.Millisecond, out.SetUp)
	// One packet every 100us for 5ms: those arriving at the switch inside
	// [1ms, 3ms) are dropped at the wire, the rest deliver.
	sendEvery(s, h1, h2, 50, 100*sim.Microsecond)
	s.Run()
	if out.Down() {
		t.Fatal("port still down after restore")
	}
	if out.Drops == 0 {
		t.Fatal("no drops during a 2ms blackout under steady traffic")
	}
	for _, at := range k.at {
		if at >= 1*sim.Millisecond+20*sim.Microsecond && at < 3*sim.Millisecond {
			t.Fatalf("packet delivered at %v, inside the blackout", at)
		}
	}
	if len(k.pkts)+int(out.Drops) != 50 {
		t.Fatalf("delivered %d + dropped %d != 50 sent", len(k.pkts), out.Drops)
	}
	// The probe sees both transitions, in order, at the port.
	if len(log.evs) != 2 || log.evs[0].Kind != EvLink || log.evs[0].A != 1 ||
		log.evs[1].Kind != EvLink || log.evs[1].A != 0 || log.evs[0].Port != out {
		t.Fatalf("fault records = %+v", log.evs)
	}
	if log.evs[0].At != 1*sim.Millisecond || log.evs[1].At != 3*sim.Millisecond {
		t.Fatalf("fault record times = %v, %v", log.evs[0].At, log.evs[1].At)
	}
}

func TestBurstyLossWindow(t *testing.T) {
	s := sim.New(1)
	net, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	log := &faultLog{}
	net.Probe = log
	// pgb=1, pbg=0 pins the chain in the bad state: total loss from the
	// moment the model is installed to the end of the run.
	m := &GilbertElliott{pgb: 1}
	at := sim.Millisecond
	s.At(at, func() { out.SetLoss(m) })
	s.At(at-sim.Microsecond, func() {
		if out.loss != nil {
			t.Error("loss model installed before at")
		}
	})
	// One packet every 100us for 3ms: the ten sent before at deliver,
	// every later one is lost.
	sendEvery(s, h1, h2, 30, 100*sim.Microsecond)
	s.Run()
	if out.loss != m {
		t.Fatal("loss model not installed to the end of the run")
	}
	if len(k.pkts) != 10 || out.Drops != 20 {
		t.Fatalf("delivered %d, dropped %d; want 10, 20", len(k.pkts), out.Drops)
	}
	if len(log.evs) != 1 || log.evs[0].Kind != EvLoss || log.evs[0].A != 1 ||
		log.evs[0].At != at || log.evs[0].Port != out {
		t.Fatalf("fault records = %+v", log.evs)
	}
}

// TestFaultWindowDeterminism runs a lossy blackout scenario twice from
// the same seed and compares every counter: the same seed drives the
// same fault outcome.
func TestFaultWindowDeterminism(t *testing.T) {
	run := func() (int64, int64, int) {
		s := sim.New(99)
		_, h1, h2, sw := buildPair(s, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
		out := sw.PortTo(h2.ID())
		k := &sink{s: s}
		h2.Register(7, k)
		s.At(sim.Millisecond, out.SetDown)
		s.At(1500*sim.Microsecond, out.SetUp)
		m := NewGilbertElliott(0.3, 4)
		s.At(2*sim.Millisecond, func() { out.SetLoss(m) })
		sendEvery(s, h1, h2, 100, 40*sim.Microsecond)
		s.Run()
		return out.Drops, out.TxPackets, len(k.pkts)
	}
	d1, tx1, n1 := run()
	d2, tx2, n2 := run()
	if d1 != d2 || tx1 != tx2 || n1 != n2 {
		t.Fatalf("runs diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, tx1, n1, d2, tx2, n2)
	}
	if d1 == 0 {
		t.Fatal("scenario injected no loss at all")
	}
}

func TestGilbertElliottStatistics(t *testing.T) {
	const meanLoss, meanBurst = 0.01, 5.0
	g := NewGilbertElliott(meanLoss, meanBurst)
	r := rand.New(rand.NewSource(42))
	const n = 2_000_000
	lost, bursts, burstLen := 0, 0, 0
	inBurst := false
	for i := 0; i < n; i++ {
		if g.Lose(r) {
			lost++
			if !inBurst {
				bursts++
				inBurst = true
			}
			burstLen++
		} else {
			inBurst = false
		}
	}
	rate := float64(lost) / n
	if rate < meanLoss*0.8 || rate > meanLoss*1.2 {
		t.Fatalf("empirical loss %.4f, want ~%.4f", rate, meanLoss)
	}
	mb := float64(burstLen) / float64(bursts)
	if mb < meanBurst*0.8 || mb > meanBurst*1.2 {
		t.Fatalf("mean burst %.2f packets, want ~%.1f", mb, meanBurst)
	}
}

func TestGilbertElliottDeterminism(t *testing.T) {
	// Two chains fed identically-seeded RNGs produce identical traces —
	// the property the byte-identical-at-any-j guarantee rests on.
	g1 := NewGilbertElliott(0.05, 3)
	g2 := NewGilbertElliott(0.05, 3)
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		if g1.Lose(r1) != g2.Lose(r2) {
			t.Fatalf("traces diverge at packet %d", i)
		}
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	for _, c := range []struct{ loss, burst float64 }{{0, 5}, {1, 5}, {0.01, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGilbertElliott(%v, %v) did not panic", c.loss, c.burst)
				}
			}()
			NewGilbertElliott(c.loss, c.burst)
		}()
	}
}
