package netsim

// Tests for the wire-level fault machinery: link down/up (the queue is
// kept, a frame mid-serialization is lost), loss injection ordering
// relative to port hooks, and the Gilbert–Elliott loss model. The fault
// windows under steady traffic are in window_test.go.

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
