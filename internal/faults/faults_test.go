package faults

import (
	"math/rand"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

type sink struct {
	pkts []*netsim.Packet
	at   []sim.Time
	s    *sim.Simulator
}

func (k *sink) Deliver(p *netsim.Packet) {
	k.pkts = append(k.pkts, p)
	k.at = append(k.at, k.s.Now())
}

// pair wires h1 -- sw -- h2 over 1G links with 1us propagation.
func pair(s *sim.Simulator) (*netsim.Network, *netsim.Host, *netsim.Host, *netsim.Switch) {
	net := netsim.NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	cfg := netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	return net, h1, h2, sw
}

func sendEvery(s *sim.Simulator, h1, h2 *netsim.Host, n int, gap sim.Time) {
	for i := 0; i < n; i++ {
		pkt := &netsim.Packet{Flow: 7, Src: h1.ID(), Dst: h2.ID(),
			Seq: int64(i) * netsim.MSS, Payload: netsim.MSS}
		s.At(sim.Time(i)*gap, func() { h1.Send(pkt) })
	}
}

func TestLinkDownWindow(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := pair(s)
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	f := NewScheduler(s)
	var log []Event
	f.Probe = func(ev Event) { log = append(log, ev) }
	f.LinkDown(1*sim.Millisecond, 2*sim.Millisecond, false, out)
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
	// The probe sees both transitions, in order.
	if len(log) != 2 || log[0].Kind != "link-down" || log[1].Kind != "link-up" {
		t.Fatalf("fault log = %v", log)
	}
	if log[0].At != 1*sim.Millisecond || log[1].At != 3*sim.Millisecond {
		t.Fatalf("fault log times = %v", log)
	}
}

func TestDegradeRateWindow(t *testing.T) {
	s := sim.New(1)
	_, _, h2, sw := pair(s)
	out := sw.PortTo(h2.ID())
	f := NewScheduler(s)
	f.DegradeRate(sim.Millisecond, sim.Millisecond, out, 100*netsim.Mbps)
	s.At(sim.Millisecond+sim.Microsecond, func() {
		if out.Rate != 100*netsim.Mbps {
			t.Errorf("rate during degradation = %v", out.Rate)
		}
	})
	s.Run()
	if out.Rate != netsim.Gbps {
		t.Fatalf("rate after restore = %v, want 1G", out.Rate)
	}
}

func TestBurstyLossWindow(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, sw := pair(s)
	out := sw.PortTo(h2.ID())
	k := &sink{s: s}
	h2.Register(7, k)
	f := NewScheduler(s)
	// LossBad=1, PBG=0 pins the chain in the bad state: total loss while
	// the model is installed, none outside the window.
	f.BurstyLoss(sim.Millisecond, sim.Millisecond, out, &GilbertElliott{PGB: 1, LossBad: 1})
	sendEvery(s, h1, h2, 30, 100*sim.Microsecond)
	s.Run()
	if out.LossModel != nil {
		t.Fatal("loss model still installed after window")
	}
	if out.Drops == 0 {
		t.Fatal("no drops from total loss window")
	}
	if len(k.pkts)+int(out.Drops) != 30 {
		t.Fatalf("delivered %d + dropped %d != 30 sent", len(k.pkts), out.Drops)
	}
}

func TestPauseHostWindow(t *testing.T) {
	s := sim.New(1)
	_, h1, h2, _ := pair(s)
	k := &sink{s: s}
	h2.Register(7, k)
	f := NewScheduler(s)
	f.PauseHost(0, sim.Millisecond, h2)
	sendEvery(s, h1, h2, 5, 50*sim.Microsecond)
	s.Run()
	if len(k.pkts) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(k.pkts))
	}
	for i, at := range k.at {
		if at != sim.Millisecond {
			t.Fatalf("pkt %d delivered at %v, want burst at resume", i, at)
		}
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

func TestSchedulerDeterminism(t *testing.T) {
	// The same seed drives the same fault outcome: run a lossy blackout
	// scenario twice and compare every counter.
	run := func() (int64, int64, int) {
		s := sim.New(99)
		_, h1, h2, sw := pair(s)
		out := sw.PortTo(h2.ID())
		k := &sink{s: s}
		h2.Register(7, k)
		f := NewScheduler(s)
		f.LinkDown(sim.Millisecond, 500*sim.Microsecond, true, out)
		f.BurstyLoss(2*sim.Millisecond, sim.Millisecond, out, NewGilbertElliott(0.3, 4))
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
