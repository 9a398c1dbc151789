package tinytcp

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
)

// rig is the tiny-buffer dumbbell: h1 --10G-- sw --1G-- h2 with only a
// handful of frames of buffering at the bottleneck.
type rig struct {
	s      *sim.Simulator
	h1, h2 *netsim.Host
	bott   *netsim.Port
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
	return &rig{s: s, h1: h1, h2: h2, bott: sw.PortTo(h2.ID())}
}

func (r *rig) conn(flow netsim.FlowID) (*tcp.Sender, *transport.Receiver) {
	return Dial(tcp.Config{DialConfig: transport.DialConfig{Sim: r.s, Local: r.h1, Peer: r.h2, Flow: flow}})
}

func TestCwndNeverExceedsCap(t *testing.T) {
	r := newRig(1 << 20) // deep buffer: nothing but the cap limits growth
	snd, _ := r.conn(1)
	cap64 := int64(DefaultCwndCapSegs * transport.DefaultMSS)
	r.s.At(0, func() { snd.Open(); snd.Send(50 << 20) })
	var worst int64
	var poll func()
	poll = func() {
		if c := snd.Cwnd(); c > worst {
			worst = c
		}
		r.s.After(100*sim.Microsecond, poll)
	}
	r.s.At(0, poll)
	r.s.RunUntil(200 * sim.Millisecond)
	if worst > cap64 {
		t.Fatalf("cwnd reached %d, cap is %d", worst, cap64)
	}
	if worst < cap64/2 {
		t.Fatalf("cwnd peaked at %d, never approached cap %d", worst, cap64)
	}
}

func TestTinyBufferTransfer(t *testing.T) {
	// 10 frames of buffer — the regime the baseline exists for. The
	// transfer must complete at near line rate despite the shallow queue.
	r := newRig(10 * 1518)
	const total = 10 << 20
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
	goodput := float64(total) * 8 / snd.Stats().FCT().Seconds()
	if goodput < 0.80e9 {
		t.Fatalf("goodput = %.1f Mbps through a 10-frame buffer, want > 800", goodput/1e6)
	}
}

func TestCapBoundsStandingQueue(t *testing.T) {
	// Head-to-head on a deep (1MB) buffer: stock NewReno probes until it
	// fills the whole buffer and drops; the capped window bounds the
	// standing queue at cap-minus-BDP and never overflows. This is the
	// buffer-sizing argument in one run — the deep buffer bought stock TCP
	// nothing but queueing delay.
	run := func(tiny bool) (maxq int, drops int64) {
		r := newRig(1 << 20)
		var snd *tcp.Sender
		if tiny {
			snd, _ = r.conn(1)
		} else {
			snd, _ = tcp.Dial(tcp.Config{DialConfig: transport.DialConfig{Sim: r.s, Local: r.h1, Peer: r.h2, Flow: 1}})
		}
		r.s.At(0, func() { snd.Open(); snd.Send(20 << 20); snd.Close() })
		r.s.Run()
		return r.bott.MaxQueue, r.bott.Drops
	}
	stockQ, stockDrops := run(false)
	tinyQ, tinyDrops := run(true)
	cap64 := DefaultCwndCapSegs * transport.DefaultMSS
	if tinyQ > cap64 {
		t.Fatalf("tinytcp max queue %d exceeds the %d-byte window cap", tinyQ, cap64)
	}
	if tinyDrops != 0 {
		t.Fatalf("tinytcp dropped %d packets on a deep buffer", tinyDrops)
	}
	if stockQ < 4*tinyQ {
		t.Fatalf("stock max queue %d vs tinytcp %d: expected stock to fill the deep buffer", stockQ, tinyQ)
	}
	if stockDrops == 0 {
		t.Fatal("stock TCP never overflowed the buffer; scenario too gentle to compare")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, sim.Time) {
		r := newRig(10 * 1518)
		snd, _ := r.conn(1)
		r.s.At(0, func() { snd.Open(); snd.Send(5 << 20); snd.Close() })
		r.s.Run()
		return snd.Acked(), snd.Stats().Completed
	}
	a1, c1 := run()
	a2, c2 := run()
	if a1 != a2 || c1 != c2 {
		t.Fatalf("same-seed runs diverged: (%d,%v) vs (%d,%v)", a1, c1, a2, c2)
	}
}
