package netsim_test

import (
	"fmt"
	"testing"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/netsim/netsimtest"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
	"tfcsim/internal/workload"
)

// record returns a tap that keeps every record; when the (sub)test ends it
// marks the kinds it kept in seen and checks that no port's records went
// back in time.
func record(t *testing.T, seen *[netsim.NumEventKinds]bool) *netsimtest.Tap {
	tap := &netsimtest.Tap{Kinds: netsim.AllKinds}
	t.Cleanup(func() {
		lastAt := make(map[*netsim.Port]sim.Time)
		for _, r := range tap.Recs {
			seen[r.Kind] = true
			if r.Port == nil {
				continue
			}
			if r.At < lastAt[r.Port] {
				t.Errorf("%s at %s went back in time: %v after %v", r.Kind, r.Where(), r.At, lastAt[r.Port])
			}
			lastAt[r.Port] = r.At
		}
	})
	return tap
}

// placed is a record with its place named instead of pointed to, so
// records of two runs compare.
type placed struct {
	where string
	netsimtest.Record
}

func flat(r netsimtest.Record) placed {
	where := r.Where()
	r.Port, r.Host = nil, nil
	return placed{where, r}
}

type sink struct{ pkts int }

func (k *sink) Deliver(*netsim.Packet) { k.pkts++ }

// line builds h1 - sw - h2 at 1 Gbps on a simulator of the given seed,
// with tap (which may be nil) attached and a sink for flow 1 at h2.
func line(seed int64, tap *netsimtest.Tap) (*sim.Simulator, *netsim.Host, *netsim.Host, *netsim.Switch, *sink) {
	s := sim.New(seed)
	net := netsim.NewNetwork(s)
	h1, h2 := net.NewHost("h1"), net.NewHost("h2")
	sw := net.NewSwitch("sw")
	cfg := netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond}
	net.Connect(h1, sw, cfg)
	net.Connect(sw, h2, cfg)
	net.ComputeRoutes()
	if tap != nil {
		netsimtest.Attach(net, tap)
	}
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
// blackout of the bottleneck, observed as observe (nil: unobserved) sets
// up, and returns everything the run's outcome consists of.
func starDigest(proto exp.Proto, senders int, blackout bool, observe func(*exp.Env)) string {
	e, hosts, recv, bott := exp.Star(exp.TopoConfig{Proto: proto, Seed: 3}, senders, netsim.Gbps, 64<<10)
	e.Dialer.MinRTO = sim.Millisecond
	bott.SetLoss(netsim.UniformLoss(0.01))
	if observe != nil {
		observe(e)
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
// records never go back in time, that every emit point honours the
// probe's kind set, and that observing changes no result.
func TestEventStream(t *testing.T) {
	var seen [netsim.NumEventKinds]bool

	t.Run("lifecycle", func(t *testing.T) {
		rec := record(t, &seen)
		s, h1, h2, _, _ := line(1, rec)
		sendOne(s, h1, h2, 1)
		want := []netsim.EventKind{
			netsim.EvHostSend, netsim.EvEnqueue, netsim.EvDequeue, netsim.EvTx,
			netsim.EvEnqueue, netsim.EvDequeue, netsim.EvTx, netsim.EvDeliver,
		}
		wheres := []string{"h1", "h1->sw", "h1->sw", "h1->sw", "sw->h2", "sw->h2", "sw->h2", "h2"}
		if len(rec.Recs) != len(want) {
			t.Fatalf("got %d records, want %d: %v", len(rec.Recs), len(want), rec.Recs)
		}
		for i, ev := range rec.Recs {
			if ev.Kind != want[i] || ev.Where() != wheres[i] {
				t.Errorf("record %d = %s at %q, want %s at %q", i, ev.Kind, ev.Where(), want[i], wheres[i])
			}
			if ev.Flow != 1 || ev.A != 0 {
				t.Errorf("record %d carries flow=%d seq=%d, want 1 and 0", i, ev.Flow, ev.A)
			}
		}
	})

	t.Run("drop", func(t *testing.T) {
		rec := record(t, &seen)
		s, h1, h2, sw, k := line(1, rec)
		sw.PortTo(h2.ID()).SetLoss(netsim.UniformLoss(1))
		sendOne(s, h1, h2, 1)
		if first := rec.Recs[0]; first.Kind != netsim.EvLoss || first.A != 1 || first.Where() != "sw->h2" {
			t.Errorf("first record = %s (A=%d) at %q, want LOSS (A=1) at sw->h2", first.Kind, first.A, first.Where())
		}
		for _, ev := range rec.Recs {
			if ev.Kind == netsim.EvDrop && ev.Where() != "sw->h2" {
				t.Errorf("drop at %q, want sw->h2", ev.Where())
			}
		}
		if drops := rec.Count(netsim.EvDrop); drops != 1 || k.pkts != 0 {
			t.Fatalf("drop records = %d (delivered %d), want 1 (0)", drops, k.pkts)
		}
	})

	t.Run("stray", func(t *testing.T) {
		rec := record(t, &seen)
		s, h1, h2, _, _ := line(1, rec)
		sendOne(s, h1, h2, 2) // no endpoint for flow 2 at h2
		if last := rec.Recs[len(rec.Recs)-1]; last.Kind != netsim.EvStray || last.Where() != "h2" {
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
		// the disabled path works everywhere).
		s, h1, h2, _, k := line(1, nil)
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
			rec := record(t, &seen)
			observed := starDigest(c.proto, 24, c.blackout, func(e *exp.Env) {
				netsimtest.Attach(e.Net, rec)
				e.Dialer.Probe = func(string) netsim.Probe { return rec }
			})
			plain := starDigest(c.proto, 24, c.blackout, nil)
			if plain != observed {
				t.Errorf("observing changed the run:\nnil probe:\n%s\nrecording probe:\n%s", plain, observed)
			}
			if len(rec.Recs) == 0 {
				t.Error("no records observed")
			}
			// A probe subscribed to one kind receives exactly that kind's
			// network records of the run above (those with a place; the
			// sender side's came through the dialer), in order. One
			// subscribed to no kind receives nothing. Neither changes the
			// run. The probe keeps whatever it is handed, so an emit point
			// that ignores the mask shows.
			masked := func(name string, kinds netsim.KindSet) {
				var want, got []placed
				for _, r := range rec.Recs {
					if kinds.Has(r.Kind) && (r.Port != nil || r.Host != nil) {
						want = append(want, flat(r))
					}
				}
				tap := &netsimtest.Tap{Kinds: netsim.AllKinds}
				if d := starDigest(c.proto, 24, c.blackout, func(e *exp.Env) { e.Net.SetProbe(tap, kinds) }); d != plain {
					t.Errorf("subscribing to %s changed the run:\nnil probe:\n%s\nmasked probe:\n%s", name, plain, d)
				}
				for _, r := range tap.Recs {
					got = append(got, flat(r))
				}
				if i := firstDiff(got, want); i >= 0 {
					t.Errorf("subscribed to %s: record %d of %d differs from the all-kinds run's (%d)", name, i, len(got), len(want))
				}
			}
			for k := netsim.EventKind(0); k < netsim.NumEventKinds; k++ {
				masked(k.String(), netsim.KindsOf(k))
			}
			masked("no kind", 0)
		})
	}

	for k := netsim.EventKind(0); k < netsim.NumEventKinds; k++ {
		if !seen[k] {
			t.Errorf("no case emitted a %s record", k)
		}
	}
}

func TestStrayPackets(t *testing.T) {
	strays := &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvStray)}
	s, h1, h2, _, _ := line(1, strays)
	// A packet for a flow nobody registered is dropped as stray.
	sendOne(s, h1, h2, 3)
	if len(strays.Recs) != 1 || strays.Recs[0].Where() != "h2" {
		t.Fatalf("strays %v, want one at h2", strays.Recs)
	}
}

// exitKinds are the records a packet leaves the simulation by.
var exitKinds = netsim.KindsOf(netsim.EvDeliver, netsim.EvStray, netsim.EvDrop)

// checkExits asserts that every packet n's pools took back left through a
// record: the releases counted while the pool check is armed equal the
// exit records x kept.
func checkExits(t *testing.T, n *netsim.Network, x *netsimtest.Tap) {
	t.Helper()
	released := 0
	for _, sh := range n.PoolShards() {
		released += sh.Released
	}
	t.Logf("%d released, %d records", released, len(x.Recs))
	if released != len(x.Recs) {
		t.Errorf("%d packets released, %d DELIVER/STRAY/DROP records", released, len(x.Recs))
	}
}

// TestEveryReleaseIsRecorded is the release oracle: a packet leaves the
// simulation only as an EvDeliver, EvStray or EvDrop record, so no path
// may discard one silently. It runs every transport on a lossy star, a
// credit incast at 60-way fan-in (where the switch shaper sheds credits)
// and one unroutable packet.
func TestEveryReleaseIsRecorded(t *testing.T) {
	defer netsim.ArmPoolCheck()()
	star := func(t *testing.T, proto exp.Proto, senders int) *netsimtest.Tap {
		e, hosts, recv, bott := exp.Star(exp.TopoConfig{Proto: proto, Seed: 3}, senders, netsim.Gbps, 64<<10)
		bott.SetLoss(netsim.UniformLoss(0.01))
		x := netsimtest.Attach(e.Net, &netsimtest.Tap{Kinds: exitKinds})
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
		const crd = netsim.FlagCRD | netsim.FlagACK
		shed := 0
		for _, r := range star(t, exp.CREDIT, 60).Recs {
			if r.Kind == netsim.EvDrop && r.Packet.Flags&crd == crd {
				shed++
			}
		}
		if shed == 0 {
			t.Fatal("the shaper shed no credit at 60-way fan-in")
		}
	})
	t.Run("unroutable", func(t *testing.T) {
		x := &netsimtest.Tap{Kinds: exitKinds}
		s, h1, _, _, _ := line(1, x)
		s.At(0, func() { h1.Send(&netsim.Packet{Flow: 1, Src: h1.ID(), Dst: 99, Payload: netsim.MSS}) })
		s.Run()
		if len(x.Recs) != 1 {
			t.Fatalf("%d records, want the one DROP", len(x.Recs))
		}
		checkExits(t, h1.Network(), x)
	})
}
