package telemetry

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// spanRec is one recorded packet-journey span, as the tests compare it.
type spanRec struct {
	name       string
	flow       netsim.FlowID
	seq, hop   int64
	start, end sim.Time
}

func (r spanRec) String() string {
	return fmt.Sprintf("%s f%d seq=%d hop=%d [%d,%d]", r.name, r.flow, r.seq, r.hop, r.start, r.end)
}

// spanRig is a span-tracing trial on a host a → switch sw → host b path
// with 1-in-2 flow sampling, fed synthetic forwarding-path records.
type spanRig struct {
	t    *testing.T
	s    *sim.Simulator
	tr   *Trial
	a, b *netsim.Host
	sw   *netsim.Switch
	// on and off are a sampled and an unsampled flow; on2 is a second
	// sampled one.
	on, on2, off netsim.FlowID
}

func newSpanRig(t *testing.T) *spanRig {
	o := NewObservatory(ObsOptions{SpanEvery: 2})
	c := NewCollector(Options{})
	o.Attach("spans", c)
	s, n, a, b, sw := dumbbell()
	tr := c.Trial("t")
	tr.Bind(s)
	InstrumentNetwork(tr, n)
	r := &spanRig{t: t, s: s, tr: tr, a: a, b: b, sw: sw}
	var on []netsim.FlowID
	for f := netsim.FlowID(1); len(on) < 2 || r.off == 0; f++ {
		if sampledFlow(f, 2, o.opts.SpanSeed) {
			on = append(on, f)
		} else if r.off == 0 {
			r.off = f
		}
	}
	r.on, r.on2 = on[0], on[1]
	return r
}

// feed hands the trial one record about data packet (f, seq): kind at
// the sender's NIC (host=true) or the switch's port toward b, or, for
// EvDeliver, at b.
func (r *spanRig) feed(kind netsim.EventKind, at sim.Time, f netsim.FlowID, seq int64, host bool) {
	r.feedPkt(kind, at, &netsim.Packet{Flow: f, Seq: seq, Payload: 1000}, host)
}

func (r *spanRig) feedPkt(kind netsim.EventKind, at sim.Time, p *netsim.Packet, host bool) {
	ev := netsim.Event{Kind: kind, At: at, Pkt: p, Flow: p.Flow, A: p.Seq}
	switch {
	case kind == netsim.EvDeliver:
		ev.Host = r.b
	case host:
		ev.Port = r.a.NIC()
	default:
		ev.Port = r.sw.PortTo(r.b.ID())
	}
	r.tr.Observe(ev)
}

// root, leaveNIC and crossSwitch script the common shapes: a journey root at the
// sender's NIC, a dequeue/transmit pair at the NIC, and the switch's
// wire/queue/xmit then the delivery.
func (r *spanRig) root(at sim.Time, f netsim.FlowID, seq int64) {
	r.feed(netsim.EvEnqueue, at, f, seq, true)
}

func (r *spanRig) leaveNIC(at sim.Time, f netsim.FlowID, seq int64) {
	r.feed(netsim.EvDequeue, at, f, seq, true)
	r.feed(netsim.EvTx, at+5, f, seq, true)
}

func (r *spanRig) crossSwitch(at sim.Time, f netsim.FlowID, seq int64) {
	r.feed(netsim.EvEnqueue, at, f, seq, false)
	r.feed(netsim.EvDequeue, at+5, f, seq, false)
	r.feed(netsim.EvTx, at+10, f, seq, false)
	r.feed(netsim.EvDeliver, at+20, f, seq, false)
}

// spans flushes the trial at virtual time end and returns its journey
// spans sorted by (flow, seq, start, hop). Every span's parent must be
// its hop - 1.
func (r *spanRig) spans(end sim.Time) []spanRec {
	r.s.RunUntil(end)
	r.tr.Flush()
	var out []spanRec
	for _, e := range r.tr.rec.events() {
		if e.cat != SpanCat {
			continue
		}
		rec := spanRec{name: e.name, start: e.ts, end: e.ts + e.dur}
		if _, err := fmt.Sscanf(e.track, "span f%d", &rec.flow); err != nil {
			r.t.Fatalf("span track %q: %v", e.track, err)
		}
		args := map[string]float64{}
		for _, a := range e.args[:e.nargs] {
			args[a.K] = a.V
		}
		rec.seq, rec.hop = int64(args["seq"]), int64(args["hop"])
		if args["parent"] != float64(rec.hop-1) {
			r.t.Errorf("%v: parent %v, want hop-1", rec, args["parent"])
		}
		out = append(out, rec)
	}
	slices.SortFunc(out, func(x, y spanRec) int {
		switch {
		case x.flow != y.flow:
			return int(x.flow) - int(y.flow)
		case x.seq != y.seq:
			return int(x.seq - y.seq)
		case x.start != y.start:
			return int(x.start - y.start)
		}
		return int(x.hop - y.hop)
	})
	return out
}

// chain is the spans of one journey: consecutive hop names over
// consecutive transition times, hops numbered from 0.
func chain(f netsim.FlowID, seq int64, names string, times ...sim.Time) []spanRec {
	var out []spanRec
	for i, name := range strings.Fields(names) {
		out = append(out, spanRec{name: name, flow: f, seq: seq, hop: int64(i), start: times[i], end: times[i+1]})
	}
	return out
}

// TestJourneyChains pins the span tracer's chain semantics on synthetic
// forwarding-path records, independently of how live journeys are
// indexed.
func TestJourneyChains(t *testing.T) {
	const full = "queue xmit wire queue xmit deliver"
	cases := []struct {
		name string
		run  func(r *spanRig)
		want func(r *spanRig) []spanRec
	}{{
		name: "host root, switch hops, deliver",
		run: func(r *spanRig) {
			r.root(10, r.on, 0)
			r.leaveNIC(20, r.on, 0)
			r.crossSwitch(40, r.on, 0)
		},
		want: func(r *spanRig) []spanRec {
			return chain(r.on, 0, full, 10, 20, 25, 40, 45, 50, 60)
		},
	}, {
		name: "drop at the switch",
		run: func(r *spanRig) {
			r.root(10, r.on, 0)
			r.leaveNIC(20, r.on, 0)
			r.feed(netsim.EvDrop, 40, r.on, 0, false)
			// Nothing follows a terminal.
			r.feed(netsim.EvDeliver, 50, r.on, 0, false)
		},
		want: func(r *spanRig) []spanRec {
			return chain(r.on, 0, "queue xmit drop", 10, 20, 25, 40)
		},
	}, {
		name: "retransmission collides with a live chain",
		run: func(r *spanRig) {
			r.root(10, r.on, 1000)
			r.feed(netsim.EvDequeue, 20, r.on, 1000, true)
			r.root(22, r.on, 1000) // the sender resends the same seq
			// Neither copy's remaining hops are traced.
			r.feed(netsim.EvTx, 25, r.on, 1000, true)
			r.crossSwitch(40, r.on, 1000)
			r.leaveNIC(60, r.on, 1000)
			r.crossSwitch(80, r.on, 1000)
		},
		want: func(r *spanRig) []spanRec {
			return chain(r.on, 1000, "queue abort", 10, 20, 22)
		},
	}, {
		name: "re-root after the original ended",
		run: func(r *spanRig) {
			r.root(10, r.on, 0)
			r.leaveNIC(20, r.on, 0)
			r.feed(netsim.EvDrop, 40, r.on, 0, false)
			r.root(100, r.on, 0)
			r.leaveNIC(110, r.on, 0)
			r.crossSwitch(130, r.on, 0)
		},
		want: func(r *spanRig) []spanRec {
			return append(chain(r.on, 0, "queue xmit drop", 10, 20, 25, 40),
				chain(r.on, 0, full, 100, 110, 115, 130, 135, 140, 150)...)
		},
	}, {
		name: "unsampled flow records nothing",
		run: func(r *spanRig) {
			r.root(10, r.off, 0)
			r.leaveNIC(20, r.off, 0)
			r.crossSwitch(40, r.off, 0)
			r.root(100, r.off, 1000)
		},
		want: func(r *spanRig) []spanRec { return nil },
	}, {
		name: "interleaved flows and out-of-order roots",
		run: func(r *spanRig) {
			// Both flows use the same seqs: journeys are keyed per flow.
			r.root(10, r.on, 0)
			r.root(11, r.on2, 0)
			r.root(12, r.on, 1000)
			r.root(13, r.on, 2000)
			r.root(14, r.on2, 1000)
			// An ACK of a sampled flow is no journey.
			r.feedPkt(netsim.EvEnqueue, 15, &netsim.Packet{Flow: r.on, Flags: netsim.FlagACK}, true)
			r.leaveNIC(20, r.on, 0)
			r.leaveNIC(30, r.on2, 0)
			r.leaveNIC(40, r.on, 1000)
			r.feed(netsim.EvDrop, 55, r.on, 1000, false)
			// A resend of 1000 lands between live 0 (on the wire) and 2000.
			r.root(60, r.on, 1000)
			r.crossSwitch(62, r.on, 0)
			r.crossSwitch(70, r.on2, 0)
			r.leaveNIC(80, r.on, 2000)
			r.leaveNIC(90, r.on, 1000)
			r.crossSwitch(100, r.on, 1000)
			r.crossSwitch(110, r.on, 2000)
			r.leaveNIC(120, r.on2, 1000)
			r.crossSwitch(130, r.on2, 1000)
		},
		want: func(r *spanRig) []spanRec {
			var w []spanRec
			w = append(w, chain(r.on, 0, full, 10, 20, 25, 62, 67, 72, 82)...)
			w = append(w, chain(r.on, 1000, "queue xmit drop", 12, 40, 45, 55)...)
			w = append(w, chain(r.on, 1000, full, 60, 90, 95, 100, 105, 110, 120)...)
			w = append(w, chain(r.on, 2000, full, 13, 80, 85, 110, 115, 120, 130)...)
			w = append(w, chain(r.on2, 0, full, 11, 30, 35, 70, 75, 80, 90)...)
			w = append(w, chain(r.on2, 1000, full, 14, 120, 125, 130, 135, 140, 150)...)
			return w
		},
	}, {
		name: "open at flush",
		run: func(r *spanRig) {
			r.root(10, r.on, 0)
			r.feed(netsim.EvDequeue, 20, r.on, 0, true)
			r.root(30, r.on, 1000)
			r.root(40, r.on2, 0)
			r.leaveNIC(50, r.on2, 0)
			r.crossSwitch(60, r.on2, 0)
		},
		want: func(r *spanRig) []spanRec {
			var w []spanRec
			w = append(w, chain(r.on, 0, "queue open", 10, 20, 500)...)
			w = append(w, chain(r.on, 1000, "open", 30, 500)...)
			w = append(w, chain(r.on2, 0, full, 40, 50, 55, 60, 65, 70, 80)...)
			return w
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newSpanRig(t)
			tc.run(r)
			got, want := r.spans(500), tc.want(r)
			if !slices.Equal(got, want) {
				t.Fatalf("spans:\n%s\nwant:\n%s", recs(got), recs(want))
			}
		})
	}
}

func recs(rs []spanRec) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "  %v\n", r)
	}
	return b.String()
}

// FuzzJourneys replays put/get/del scripts over three flows against a
// plain map: in-order roots, arbitrary (out-of-order and repeated) seqs,
// and deletions of a flow's oldest live journey, which move the ring's
// head so that later growth happens while the ring wraps. Every get and
// the final live set must match the map, and every ring must stay sorted.
func FuzzJourneys(f *testing.F) {
	// A long in-order run whose oldest journeys end as it goes, then
	// out-of-order roots into the wrapped ring.
	var wrap []byte
	for i := 0; i < 200; i++ {
		wrap = append(wrap, 0, 0x80|byte(i%3), byte(i))
		if i%3 == 2 {
			wrap = append(wrap, 2, 0x40, 0)
		}
	}
	for i := 0; i < 40; i++ {
		wrap = append(wrap, 0, byte(i*7%64), byte(i), 1, byte(i*5%64), 0)
	}
	f.Add(wrap)
	f.Add([]byte{0, 3, 1, 0, 1, 2, 1, 3, 0, 2, 3, 0, 1, 1, 0, 0, 3, 9, 1, 3, 0})
	// A journey that holds the head while the ones behind it end: their
	// dead entries stay until it ends. Gets of a seq above the newest and
	// of a flow never put miss.
	stuck := []byte{0, 0, 0}
	for i := 1; i < 60; i++ {
		stuck = append(stuck, 0, 0x81, byte(i), 2, byte(i), 0)
	}
	f.Add(append(stuck, 1, 0, 0, 1, 0x87, 0, 10, 0, 0))
	f.Fuzz(func(t *testing.T, script []byte) {
		var x journeyIndex
		ref := map[journeyKey]journeyState{}
		newest := map[netsim.FlowID]int64{}
		oldest := func(flow netsim.FlowID) (int64, bool) {
			var lo int64
			found := false
			for k := range ref {
				if k.flow == flow && (!found || k.seq < lo) {
					lo, found = k.seq, true
				}
			}
			return lo, found
		}
		for i := 0; i+2 < len(script); i += 3 {
			op, arg, v := script[i]%3, script[i+1], script[i+2]
			k := journeyKey{flow: netsim.FlowID(script[i] >> 2 % 3)}
			switch {
			case arg&0x80 != 0: // the flow's next segment, a gap of 0..7 after its newest
				k.seq = newest[k.flow] + int64(arg&7)*1000
			case arg&0x40 != 0: // the flow's oldest live journey
				seq, ok := oldest(k.flow)
				if !ok {
					continue
				}
				k.seq = seq
			default:
				k.seq = int64(arg&0x3f) * 1000
			}
			newest[k.flow] = max(newest[k.flow], k.seq)
			switch op {
			case 0:
				st := journeyState{last: sim.Time(i), hop: int(v)}
				x.put(k, st)
				ref[k] = st
			case 1:
				got, ok := x.get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("op %d: get%v = %v %v, want %v %v", i/3, k, got, ok, want, wok)
				}
			case 2:
				x.del(k)
				delete(ref, k)
			}
		}
		live := map[journeyKey]journeyState{}
		for flow, r := range x {
			if n := len(r.buf); n&(n-1) != 0 || r.n > n {
				t.Fatalf("flow %d: %d entries in a ring of %d", flow, r.n, n)
			}
			for i := 0; i < r.n; i++ {
				e := r.at(i)
				if i > 0 && e.seq <= r.at(i-1).seq {
					t.Fatalf("flow %d: seq %d at offset %d after %d", flow, e.seq, i, r.at(i-1).seq)
				}
				if e.live {
					live[journeyKey{flow, e.seq}] = journeyState{last: e.last, hop: int(e.hop)}
				}
			}
			if r.n > 0 && !r.at(0).live {
				t.Fatalf("flow %d: dead entry at the head", flow)
			}
		}
		if !maps.Equal(live, ref) {
			t.Fatalf("live set %v, want %v", live, ref)
		}
	})
}
