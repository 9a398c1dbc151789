package netsim_test

import (
	"fmt"
	"testing"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
	"tfcsim/internal/workload"
)

// recorder is a netsim.Probe that keeps what the stream tests check: the
// records in order, which kinds were seen, and per-port clock monotonicity.
type recorder struct {
	t      *testing.T
	evs    []netsim.Event
	seen   *[netsim.NumEventKinds]bool
	lastAt map[*netsim.Port]sim.Time
}

func newRecorder(t *testing.T, seen *[netsim.NumEventKinds]bool) *recorder {
	return &recorder{t: t, seen: seen, lastAt: make(map[*netsim.Port]sim.Time)}
}

func (r *recorder) Observe(ev netsim.Event) {
	r.seen[ev.Kind] = true
	if ev.Port != nil {
		if ev.At < r.lastAt[ev.Port] {
			r.t.Errorf("%s at %s went back in time: %v after %v", ev.Kind, ev.Where(), ev.At, r.lastAt[ev.Port])
		}
		r.lastAt[ev.Port] = ev.At
	}
	ev.Pkt = nil // recycled once Observe returns
	r.evs = append(r.evs, ev)
}

type sink struct{ pkts int }

func (k *sink) Deliver(*netsim.Packet) { k.pkts++ }

// line builds h1 - sw - h2 at 1 Gbps with rec (which may be nil) as probe
// and a sink for flow 1 at h2.
func line(rec netsim.Probe) (*sim.Simulator, *netsim.Host, *netsim.Host, *netsim.Switch, *sink) {
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	h1, h2 := net.NewHost("h1"), net.NewHost("h2")
	sw := net.NewSwitch("sw")
	cfg := netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	net.Probe = rec
	k := &sink{}
	h2.Register(1, k)
	return s, h1, h2, sw, k
}

func sendOne(s *sim.Simulator, from, to *netsim.Host, flow netsim.FlowID) {
	s.At(0, func() {
		from.Send(&netsim.Packet{Flow: flow, Src: from.ID(), Dst: to.ID(), Payload: netsim.MSS})
	})
	s.Run()
}

// starDigest runs senders flows of proto over a lossy star (1% loss and a
// 64 KB buffer at the bottleneck, 1 ms MinRTO), optionally with a 1 ms
// blackout of the bottleneck, under probe (nil: unobserved), and returns
// everything the run's outcome consists of.
func starDigest(proto exp.Proto, senders int, blackout bool, probe netsim.Probe) string {
	e, hosts, recv, bott := exp.Star(exp.TopoConfig{Proto: proto, Seed: 3}, senders, netsim.Gbps, 64<<10)
	e.Dialer.MinRTO = sim.Millisecond
	bott.SetLoss(netsim.UniformLoss(0.01))
	if probe != nil {
		e.Net.Probe = probe
		e.Dialer.Probe = func(string) netsim.Probe { return probe }
	}
	if blackout {
		e.Sim.At(2*sim.Millisecond, bott.SetDown)
		e.Sim.At(3*sim.Millisecond, bott.SetUp)
	}
	var conns []*workload.Conn
	for _, h := range hosts {
		c := e.Dialer.Dial(h, recv, nil, nil)
		conns = append(conns, c)
		e.Sim.At(0, func() {
			c.Sender.Open()
			c.Sender.Send(128 << 10)
			c.Sender.Close()
		})
	}
	e.Sim.RunUntil(40 * sim.Millisecond)
	out := fmt.Sprintf("events=%d drops=%d tx=%d maxq=%d\n", e.Sim.Executed(), bott.Drops, bott.TxPackets, bott.MaxQueue)
	for _, c := range conns {
		st := c.Sender.Stats()
		out += fmt.Sprintf("f%d acked=%d rcvd=%d to=%d frtx=%d rtx=%d done=%v@%d\n", c.Flow,
			c.Sender.Acked(), c.Received(), st.Timeouts, st.FastRtx, st.RtxBytes, st.Done, st.Completed)
	}
	return out
}

// TestEventStream checks the one observation stream end to end: the
// packet-lifecycle order at a single path, the drop and stray kinds, the
// kind names, the disabled path, and — over every transport on a lossy
// star plus one blackout — that every EventKind is emitted, that a port's
// records never go back in time, and that observing changes no result.
func TestEventStream(t *testing.T) {
	var seen [netsim.NumEventKinds]bool

	t.Run("lifecycle", func(t *testing.T) {
		rec := newRecorder(t, &seen)
		s, h1, h2, _, _ := line(rec)
		sendOne(s, h1, h2, 1)
		want := []netsim.EventKind{
			netsim.EvHostSend, netsim.EvEnqueue, netsim.EvDequeue, netsim.EvTx,
			netsim.EvEnqueue, netsim.EvDequeue, netsim.EvTx, netsim.EvDeliver,
		}
		wheres := []string{"h1", "h1->sw", "h1->sw", "h1->sw", "sw->h2", "sw->h2", "sw->h2", "h2"}
		if len(rec.evs) != len(want) {
			t.Fatalf("got %d records, want %d: %v", len(rec.evs), len(want), rec.evs)
		}
		for i, ev := range rec.evs {
			if ev.Kind != want[i] || ev.Where() != wheres[i] {
				t.Errorf("record %d = %s at %q, want %s at %q", i, ev.Kind, ev.Where(), want[i], wheres[i])
			}
			if ev.Flow != 1 || ev.A != 0 {
				t.Errorf("record %d carries flow=%d seq=%d, want 1 and 0", i, ev.Flow, ev.A)
			}
		}
	})

	t.Run("drop", func(t *testing.T) {
		rec := newRecorder(t, &seen)
		s, h1, h2, sw, k := line(rec)
		sw.PortTo(h2.ID()).SetLoss(netsim.UniformLoss(1))
		sendOne(s, h1, h2, 1)
		if first := rec.evs[0]; first.Kind != netsim.EvLoss || first.A != 1 || first.Where() != "sw->h2" {
			t.Errorf("first record = %s (A=%d) at %q, want LOSS (A=1) at sw->h2", first.Kind, first.A, first.Where())
		}
		drops := 0
		for _, ev := range rec.evs {
			if ev.Kind == netsim.EvDrop {
				drops++
				if ev.Where() != "sw->h2" {
					t.Errorf("drop at %q, want sw->h2", ev.Where())
				}
			}
		}
		if drops != 1 || k.pkts != 0 {
			t.Fatalf("drop records = %d (delivered %d), want 1 (0)", drops, k.pkts)
		}
	})

	t.Run("stray", func(t *testing.T) {
		rec := newRecorder(t, &seen)
		s, h1, h2, _, _ := line(rec)
		sendOne(s, h1, h2, 2) // no endpoint for flow 2 at h2
		if last := rec.evs[len(rec.evs)-1]; last.Kind != netsim.EvStray || last.Where() != "h2" {
			t.Fatalf("last record = %s at %q, want STRAY at h2", last.Kind, last.Where())
		}
	})

	t.Run("strings", func(t *testing.T) {
		legacy := map[netsim.EventKind]string{
			netsim.EvHostSend: "SEND", netsim.EvEnqueue: "ENQ", netsim.EvDrop: "DROP",
			netsim.EvTx: "TX", netsim.EvDeliver: "RECV", netsim.EvStray: "STRAY",
			netsim.EventKind(99): "?",
		}
		for k, want := range legacy {
			if k.String() != want {
				t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
			}
		}
		names := map[string]netsim.EventKind{}
		for k := netsim.EventKind(0); k < netsim.NumEventKinds; k++ {
			if prev, dup := names[k.String()]; dup || k.String() == "" || k.String() == "?" {
				t.Errorf("kind %d is named %q (kind %d has that name: %v)", k, k.String(), prev, dup)
			}
			names[k.String()] = k
		}
	})

	t.Run("nil-probe", func(t *testing.T) {
		// With no probe set, traffic must flow identically (smoke test that
		// the nil-check path works everywhere).
		s, h1, h2, _, k := line(nil)
		sendOne(s, h1, h2, 1)
		if k.pkts != 1 {
			t.Fatal("delivery failed without a probe")
		}
	})

	// Incast-scale fan-in so TFC's windows fall below one MSS (ACK holds)
	// and DCTCP's queue crosses its marking threshold.
	for _, c := range []struct {
		proto    exp.Proto
		blackout bool
	}{
		{exp.TFC, false}, {exp.TCP, false}, {exp.DCTCP, false},
		{exp.BFC, false}, {exp.CREDIT, false}, {exp.TCP, true},
	} {
		name := string(c.proto)
		if c.blackout {
			name += "+blackout"
		}
		t.Run(name, func(t *testing.T) {
			rec := newRecorder(t, &seen)
			observed := starDigest(c.proto, 24, c.blackout, rec)
			if plain := starDigest(c.proto, 24, c.blackout, nil); plain != observed {
				t.Errorf("observing changed the run:\nnil probe:\n%s\nrecording probe:\n%s", plain, observed)
			}
			if len(rec.evs) == 0 {
				t.Error("no records observed")
			}
		})
	}

	for k := netsim.EventKind(0); k < netsim.NumEventKinds; k++ {
		if !seen[k] {
			t.Errorf("no case emitted a %s record", k)
		}
	}
}

// exits is a probe that counts the records a packet leaves the simulation
// by — EvDeliver, EvStray and EvDrop — and, among the drops, the
// receivers' credits (FlagCRD|FlagACK).
type exits struct{ n, credits int }

func (x *exits) Observe(ev netsim.Event) {
	const crd = netsim.FlagCRD | netsim.FlagACK
	switch ev.Kind {
	case netsim.EvDrop:
		if ev.Pkt.Flags&crd == crd {
			x.credits++
		}
		x.n++
	case netsim.EvDeliver, netsim.EvStray:
		x.n++
	}
}

// checkExits asserts that every packet n's pools took back left through a
// record: the releases counted while the pool check is armed equal x's
// records.
func checkExits(t *testing.T, n *netsim.Network, x *exits) {
	t.Helper()
	released := 0
	for _, sh := range n.PoolShards() {
		released += sh.Released
	}
	t.Logf("%d released, %d records, %d credits dropped", released, x.n, x.credits)
	if released != x.n {
		t.Errorf("%d packets released, %d DELIVER/STRAY/DROP records", released, x.n)
	}
}

// TestEveryReleaseIsRecorded is the release oracle: a packet leaves the
// simulation only as an EvDeliver, EvStray or EvDrop record, so no path
// may discard one silently. It runs every transport on a lossy star, a
// credit incast at 60-way fan-in (where the switch shaper sheds credits)
// and one unroutable packet.
func TestEveryReleaseIsRecorded(t *testing.T) {
	defer netsim.ArmPoolCheck()()
	star := func(t *testing.T, proto exp.Proto, senders int) *exits {
		e, hosts, recv, bott := exp.Star(exp.TopoConfig{Proto: proto, Seed: 3}, senders, netsim.Gbps, 64<<10)
		bott.SetLoss(netsim.UniformLoss(0.01))
		x := &exits{}
		e.Net.Probe = x
		for _, h := range hosts {
			greedy(e, h, recv)
		}
		e.Sim.RunUntil(20 * sim.Millisecond)
		checkExits(t, e.Net, x)
		return x
	}
	for _, name := range transport.Names() {
		t.Run(name, func(t *testing.T) { star(t, exp.Proto(name), 24) })
	}
	t.Run("credit-incast", func(t *testing.T) {
		if x := star(t, exp.CREDIT, 60); x.credits == 0 {
			t.Fatal("the shaper shed no credit at 60-way fan-in")
		}
	})
	t.Run("unroutable", func(t *testing.T) {
		x := &exits{}
		s, h1, _, _, _ := line(x)
		s.At(0, func() { h1.Send(&netsim.Packet{Flow: 1, Src: h1.ID(), Dst: 99, Payload: netsim.MSS}) })
		s.Run()
		if x.n != 1 {
			t.Fatalf("%d records, want the one DROP", x.n)
		}
		checkExits(t, h1.Network(), x)
	})
}
