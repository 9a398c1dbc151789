package transport_test

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"

	// Every in-tree transport registers itself; the table below is
	// whatever transport.Names() returns.
	_ "tfcsim/internal/bfc"
	_ "tfcsim/internal/core"
	_ "tfcsim/internal/credit"
	_ "tfcsim/internal/dctcp"
	_ "tfcsim/internal/tcp"
	_ "tfcsim/internal/tinytcp"
)

// lossHook drops the packets its predicate picks as they leave a host.
type lossHook struct {
	drop func(*netsim.Packet) bool
}

func (h *lossHook) OnEnqueue(pkt *netsim.Packet, _ *netsim.Port) bool {
	return h.drop == nil || !h.drop(pkt)
}

// once wraps pred so it drops only the n-th packet it matches.
func once(n int, pred func(*netsim.Packet) bool) func(*netsim.Packet) bool {
	return func(p *netsim.Packet) bool {
		if !pred(p) {
			return false
		}
		n--
		return n == 0
	}
}

// dumbbell is one connection of a registered transport over h1 - sw - h2,
// dialed through the registry exactly as the harness does, with a loss
// hook on each host's NIC: fwd sees what the sender emits (SYN, data,
// probes, credit requests), rev what the receiver emits (ACKs, credits).
type dumbbell struct {
	s         *sim.Simulator
	conn      transport.Conn
	fwd, rev  lossHook
	drains    int
	completed int
}

func newDumbbell(t *testing.T, proto string) *dumbbell {
	f, err := transport.Lookup(proto)
	if err != nil {
		t.Fatal(err)
	}
	d := &dumbbell{s: sim.New(7)}
	net := netsim.NewNetwork(d.s)
	h1, h2, sw := net.NewHost("h1"), net.NewHost("h2"), net.NewSwitch("sw")
	link := netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: 256 << 10, BufB: 256 << 10}
	net.Connect(h1, sw, link)
	net.Connect(sw, h2, link)
	net.ComputeRoutes()
	if f.Attach != nil {
		f.Attach(transport.AttachConfig{Sim: d.s, Switches: []*netsim.Switch{sw}, MarkRate: netsim.Gbps})
	}
	h1.NIC().Hook, h2.NIC().Hook = &d.fwd, &d.rev
	d.conn = f.Dial(transport.DialConfig{
		Sim: d.s, Local: h1, Peer: h2, Flow: 1, MinRTO: sim.Millisecond,
		OnDrain:    func() { d.drains++ },
		OnComplete: func() { d.completed++ },
	})
	return d
}

// finish runs the simulation out and checks what every scenario ends
// with: the flow completed exactly once with every queued byte delivered
// and acknowledged.
func (d *dumbbell) finish(t *testing.T) {
	t.Helper()
	d.s.RunUntil(d.s.Now() + 10*transport.MaxRTO)
	snd, st := d.conn.Sender, d.conn.Sender.Stats()
	if d.completed != 1 || !st.Done {
		t.Fatalf("OnComplete fired %d times (done=%v): received %d acked %d of %d, %d timeouts",
			d.completed, st.Done, d.conn.Received(), snd.Acked(), snd.Queued(), st.Timeouts)
	}
	if d.conn.Received() != snd.Queued() || snd.Acked() != snd.Queued() || st.BytesAcked != snd.Acked() {
		t.Fatalf("received %d, acked %d, BytesAcked %d, queued %d",
			d.conn.Received(), snd.Acked(), st.BytesAcked, snd.Queued())
	}
}

func isSYN(p *netsim.Packet) bool  { return p.Flags&netsim.FlagSYN != 0 }
func isData(p *netsim.Packet) bool { return p.Payload > 0 }
func any1(*netsim.Packet) bool     { return true }

// TestConformance puts every registered transport through the loss cases
// the shared reliable-delivery core exists to survive. The cases say
// nothing about windows or rates — only that bytes arrive, the flow
// completes once, and the retransmission clock neither stalls nor spins.
func TestConformance(t *testing.T) {
	const msg = 64 << 10
	cases := []struct {
		name string
		run  func(t *testing.T, d *dumbbell)
	}{
		{"clean", func(t *testing.T, d *dumbbell) {
			d.s.At(0, func() { d.conn.Sender.Open(); d.conn.Sender.Send(msg); d.conn.Sender.Close() })
			d.finish(t)
			if st := d.conn.Sender.Stats(); st.Timeouts != 0 || st.RtxBytes != 0 {
				t.Fatalf("clean path saw %d timeouts, %d retransmitted bytes", st.Timeouts, st.RtxBytes)
			}
		}},
		{"lost-syn", func(t *testing.T, d *dumbbell) {
			// Send and Close both land before establishment.
			d.fwd.drop = once(1, isSYN)
			d.s.At(0, func() { d.conn.Sender.Open(); d.conn.Sender.Send(msg); d.conn.Sender.Close() })
			d.finish(t)
		}},
		{"empty-close", func(t *testing.T, d *dumbbell) {
			d.s.At(0, func() { d.conn.Sender.Open(); d.conn.Sender.Close(); d.conn.Sender.Close() })
			d.finish(t)
		}},
		{"lost-data", func(t *testing.T, d *dumbbell) {
			d.fwd.drop = once(3, isData)
			d.s.At(0, func() { d.conn.Sender.Open(); d.conn.Sender.Send(msg); d.conn.Sender.Close() })
			d.finish(t)
			if d.conn.Sender.Stats().RtxBytes == 0 {
				t.Fatal("a data segment was dropped and nothing was retransmitted")
			}
		}},
		{"lost-final-ack", func(t *testing.T, d *dumbbell) {
			// Mid-stream a lost cumulative ACK is covered by the next
			// one; the last has no successor.
			d.rev.drop = once(1, func(p *netsim.Packet) bool { return p.Flags&netsim.FlagACK != 0 && p.Ack == msg })
			d.s.At(0, func() { d.conn.Sender.Open(); d.conn.Sender.Send(msg); d.conn.Sender.Close() })
			d.finish(t)
			if d.conn.Sender.Stats().Timeouts == 0 {
				t.Fatal("the completing ACK was dropped and no timeout recovered it")
			}
		}},
		{"resume-loss", func(t *testing.T, d *dumbbell) {
			// A persistent connection resumes after its first message
			// drained (and stopped the timer); whatever the protocol
			// sends first — data, a window probe, a credit request — is
			// lost.
			d.s.At(0, func() { d.conn.Sender.Open(); d.conn.Sender.Send(msg) })
			d.s.RunUntil(100 * sim.Millisecond)
			if d.drains != 1 {
				t.Fatalf("first message: %d drains, want 1", d.drains)
			}
			d.fwd.drop = once(1, any1)
			d.conn.Sender.Send(msg)
			d.conn.Sender.Close()
			d.finish(t)
			if d.drains != 2 {
				t.Fatalf("%d drains, want 2", d.drains)
			}
		}},
		{"blackout", func(t *testing.T, d *dumbbell) {
			// Long enough to push the backoff past 32 shifts. From the 1 ms MinRTO the backoff doubles to the 60 s cap in
			// 16 timeouts (65.5 s), then fires once a minute: 40 timeouts
			// by the end of the blackout, the last 24 of them shifting by
			// 16..39 bits. A clamp that overflowed would either spin
			// (thousands of timeouts) or stall (no 40th).
			const blackout = 66*sim.Second + 24*transport.MaxRTO
			d.s.At(0, func() { d.conn.Sender.Open(); d.conn.Sender.Send(1 << 20); d.conn.Sender.Close() })
			d.s.At(sim.Millisecond, func() { d.fwd.drop = any1 })
			d.s.RunUntil(sim.Millisecond + blackout)
			if n := d.conn.Sender.Stats().Timeouts; n < 38 || n > 42 {
				t.Fatalf("%d timeouts in the blackout, want about 40", n)
			}
			d.fwd.drop = nil
			d.finish(t)
		}},
	}
	for _, proto := range transport.Names() {
		for _, c := range cases {
			t.Run(proto+"/"+c.name, func(t *testing.T) { c.run(t, newDumbbell(t, proto)) })
		}
	}
}
