package netsim

import (
	"fmt"
	"testing"

	"tfcsim/internal/sim"
)

// hookFunc adapts a function to PortHook.
type hookFunc func(*Packet, *Port) bool

func (f hookFunc) OnEnqueue(pkt *Packet, port *Port) bool { return f(pkt, port) }

// pacerRig is one pacer in front of the port a->b. Every packet the pacer
// enqueues is handed to enq (with the instant) and then dropped, so
// nothing is transmitted and the pool takes it back at once.
func pacerRig(enq func(pkt *Packet, at sim.Time)) (*sim.Simulator, *Port) {
	s := sim.New(1)
	n := NewNetwork(s)
	a, b := n.NewHost("a"), n.NewHost("b")
	n.Connect(a, b, LinkConfig{Rate: Gbps, Delay: sim.Microsecond})
	out := a.NIC()
	out.Hook = hookFunc(func(pkt *Packet, _ *Port) bool {
		enq(pkt, s.Now())
		return false
	})
	return s, out
}

// advance moves s to end, running what is due: an idle simulator does not
// move its clock, so a no-op event marks the instant.
func advance(s *sim.Simulator, end sim.Time) {
	s.At(end, func() {})
	s.RunUntil(end)
}

func TestPacer(t *testing.T) {
	// One token per µs, a release costs one, the bucket holds two.
	const rate, cost, burst = 1e6, 1.0, 2.0

	t.Run("oldest first at the covering instants", func(t *testing.T) {
		var log []string
		s, out := pacerRig(func(pkt *Packet, at sim.Time) {
			log = append(log, fmt.Sprintf("enq %d@%v w=%d", pkt.Seq, at, pkt.Window))
		})
		var p Pacer
		p.Init(s, rate, cost, burst, 0, func(pkt *Packet) {
			log = append(log, fmt.Sprintf("grant %d held=%d", pkt.Seq, p.Len()))
			pkt.Window = 7
		})
		if p.Take() {
			t.Fatal("Take admitted from an empty bucket")
		}
		for i := range 3 {
			pkt := out.NewPacket()
			pkt.Seq = int64(i + 1)
			p.Hold(pkt, out)
		}
		s.Run()
		want := []string{
			"grant 1 held=2", "enq 1@1us w=7",
			"grant 2 held=1", "enq 2@2us w=7",
			"grant 3 held=0", "enq 3@3us w=7",
		}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("release log\n got %q\nwant %q", log, want)
		}
	})

	t.Run("idle bucket holds at most burst", func(t *testing.T) {
		s, _ := pacerRig(func(*Packet, sim.Time) {})
		var p Pacer
		p.Init(s, rate, cost, burst, 0, nil)
		advance(s, sim.Millisecond)
		p.Charge(0)
		if p.Tokens != burst {
			t.Fatalf("tokens after 1 ms idle = %v, want the burst %v", p.Tokens, burst)
		}
		if !p.Take() || !p.Take() || p.Take() {
			t.Fatal("a full bucket of two must admit exactly two")
		}
	})

	t.Run("Take refuses while anything is held", func(t *testing.T) {
		var at []sim.Time
		s, out := pacerRig(func(_ *Packet, now sim.Time) { at = append(at, now) })
		var p Pacer
		p.Init(s, rate, cost, burst, burst, nil)
		p.Hold(out.NewPacket(), out)
		if p.Take() {
			t.Fatal("Take jumped a held packet")
		}
		s.Run()
		if len(at) != 1 || at[0] != 1 {
			t.Fatalf("a packet held on a covering bucket left at %v, want [1ns]", at)
		}
		if !p.Take() {
			t.Fatal("Take refused once nothing was held")
		}
	})

	t.Run("negative tokens delay the next release", func(t *testing.T) {
		var at []sim.Time
		s, out := pacerRig(func(_ *Packet, now sim.Time) { at = append(at, now) })
		var p Pacer
		p.Init(s, rate, cost, burst, 0, nil)
		p.Charge(3)
		if p.Tokens != -3 {
			t.Fatalf("tokens after charging 3 = %v, want -3", p.Tokens)
		}
		p.Hold(out.NewPacket(), out)
		s.Run()
		if len(at) != 1 || at[0] != 4*sim.Microsecond {
			t.Fatalf("release at %v, want [4µs]", at)
		}
	})
}

// refPacer is FuzzPacer's reference: the same bucket over integer tokens
// refilled at perNs tokens per nanosecond, so its levels are exact where
// the pacer's float ones may be off by rounding.
type refPacer struct {
	tokens, cost, burst, perNs int64
	last                       sim.Time
	held                       []int64
}

func (r *refPacer) refill(now sim.Time) {
	r.tokens = min(r.tokens+int64(now-r.last)*r.perNs, r.burst)
	r.last = now
}

// due is the earliest instant the head can leave, given the bucket as of
// the last refill.
func (r *refPacer) due() sim.Time {
	need := max(r.cost-r.tokens, 0)
	return r.last + sim.Time((need+r.perNs-1)/r.perNs)
}

// FuzzPacer replays hold/take/charge/advance scripts on a pacer and on an
// integer reference bucket. The first four bytes choose the refill rate
// (1–3 tokens per ns), the cost, the burst and the starting level; each
// further byte is one step, its top two bits the operation and the rest
// its argument. Released packets must leave oldest first, never before
// the bucket covers them and at most slack after it does (the release
// delay truncates to whole ns, so a release may need one more 1 ns
// retry), Take must agree with the reference unless the level sits
// exactly at the cost, and Tokens must never exceed the burst.
func FuzzPacer(f *testing.F) {
	f.Add([]byte{0, 99, 50, 0, 0x03, 0xc8, 0x41, 0x80 | 20, 0x01, 0xff, 0x40, 0xff})
	f.Add([]byte{2, 7, 3, 9, 0x40, 0x02, 0xbf, 0x41, 0xc1, 0xc1, 0x03, 0xff, 0xff})
	f.Add([]byte{1, 255, 255, 255, 0x00, 0x40, 0x40, 0x81, 0x82, 0xe0, 0x03, 0xe0})
	f.Fuzz(func(t *testing.T, script []byte) {
		const slack = 2
		if len(script) < 4 {
			return
		}
		perNs := int64(script[0]%3) + 1
		cost := int64(script[1]) + 1
		burst := cost + int64(script[2])%(2*cost)
		ref := &refPacer{tokens: int64(script[3]) % (burst + 1), cost: cost, burst: burst, perNs: perNs}
		step := max(cost/perNs/8, 1) // ns per advance unit

		var p Pacer
		var next, released int64
		var granted *Packet
		s, out := pacerRig(func(pkt *Packet, at sim.Time) {
			if pkt != granted {
				t.Fatalf("packet %d enqueued without its grant", pkt.Seq)
			}
			granted = nil
		})
		p.Init(s, float64(perNs)*1e9, float64(cost), float64(burst), float64(ref.tokens), func(pkt *Packet) {
			now := s.Now()
			due := ref.due()
			ref.refill(now)
			switch {
			case len(ref.held) == 0 || pkt.Seq != ref.held[0]:
				t.Fatalf("released packet %d at %v, want the head of %v", pkt.Seq, now, ref.held)
			case ref.tokens < cost:
				t.Fatalf("packet %d released at %v with %d tokens, below the cost %d", pkt.Seq, now, ref.tokens, cost)
			case now > due+slack:
				t.Fatalf("packet %d released at %v, due at %v", pkt.Seq, now, due)
			case p.Tokens > float64(burst-cost)+1e-6:
				t.Fatalf("tokens %v after a release, burst %d", p.Tokens, burst)
			}
			ref.tokens -= cost
			ref.held = ref.held[1:]
			released++
			granted = pkt
		})
		for i, b := range script[4:] {
			arg := int64(b & 0x3f)
			ref.refill(s.Now())
			switch b >> 6 {
			case 0: // hold 1–4 packets
				for range arg%4 + 1 {
					next++
					pkt := out.NewPacket()
					pkt.Seq = next
					p.Hold(pkt, out)
					ref.held = append(ref.held, next)
				}
			case 1: // take
				got := p.Take()
				want := len(ref.held) == 0 && ref.tokens >= cost
				tie := len(ref.held) == 0 && ref.tokens == cost
				if got != want && !tie {
					t.Fatalf("step %d: Take = %v with %d held and %d tokens (cost %d)", i, got, len(ref.held), ref.tokens, cost)
				}
				if got {
					ref.tokens -= cost
				}
			case 2: // charge up to ~8 costs
				n := arg * cost / 8
				p.Charge(float64(n))
				ref.tokens -= n
			case 3: // advance
				advance(s, s.Now()+sim.Time(arg*step))
			}
			if p.Tokens > float64(burst) {
				t.Fatalf("step %d: tokens %v above the burst %d", i, p.Tokens, burst)
			}
		}
		s.Run()
		if p.Len() != 0 || released != next {
			t.Fatalf("released %d of %d packets, %d still held", released, next, p.Len())
		}
	})
}
