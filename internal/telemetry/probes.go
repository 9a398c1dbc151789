package telemetry

import (
	"fmt"

	"tfcsim/internal/core"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// portKey is a unique, deterministic per-port metric/track suffix.
// Labels alone can collide (topology builders reuse node names, e.g.
// every testbed host is "H"); node IDs cannot.
func portKey(p *netsim.Port) string {
	return fmt.Sprintf("%s#%d-%d", p.Label, p.Owner.ID(), p.Peer.ID())
}

// The per-flow labels: flowLabel(kind, f) is "<flowPrefix[kind]> f<f>".
const (
	lblFlow uint8 = iota
	lblHold
	lblRecovery
	lblCwnd
	lblRTO
	lblCreditRate
	lblSpan
)

var flowPrefix = [...]string{"flow", "ack-hold", "fast-recovery", "cwnd", "rto", "credit-rate", "span"}

// flowLabel returns the per-flow track/event label of kind for f. It
// formats once per (kind, flow): records that arrive per ACK, per slot or
// per packet hop would otherwise Sprintf the same handful of labels
// millions of times. Lookups allocate nothing, and each kind's cache is
// keyed by the flow alone, so a lookup hashes one integer: with the
// prefix string in one shared key, span tracing's per-hop lookup took
// about 3 % of BenchmarkEngineThroughputObs's CPU profile (2-CPU Xeon).
func (t *Trial) flowLabel(kind uint8, f netsim.FlowID) string {
	m := t.flowLabels[kind]
	if s, ok := m[f]; ok {
		return s
	}
	if m == nil {
		m = make(map[netsim.FlowID]string)
		t.flowLabels[kind] = m
	}
	s := fmt.Sprintf("%s f%d", flowPrefix[kind], f)
	m[f] = s
	return s
}

// portLabel returns p's unique label (portKey), formatted once by
// InstrumentNetwork. p must belong to the instrumented network.
func (t *Trial) portLabel(p *netsim.Port) string { return t.labels[p.Ordinal()] }

// --- the open-interval table ---

// Span families: what a begun-and-not-yet-ended interval is.
const (
	famFlow     uint8 = iota // a flow's lifetime, seen at its sender NIC
	famLink                  // a link being down
	famHold                  // TFC's delay arbiter holding a flow's ACK at a port
	famRecovery              // a sender in fast recovery
	famLoss                  // a wire-loss model installed at a port
)

// spanKey identifies one open interval. id is the port's ordinal for
// famLink, famHold and famLoss; all-integer, so the per-packet flow
// lookup hashes no string.
type spanKey struct {
	fam  uint8
	id   int32
	flow netsim.FlowID
}

type interval struct {
	start       sim.Time
	bytes, pkts int64 // famFlow only
}

// begin returns k's open interval, opening one at now if there is none
// (so a repeated begin keeps the first start).
func (t *Trial) begin(k spanKey, now sim.Time) *interval {
	iv := t.open[k]
	if iv == nil {
		iv = &interval{start: now}
		t.open[k] = iv
		if k.fam == famFlow {
			t.flows++
		}
	}
	return iv
}

// take removes and returns k's open interval (nil if there is none).
func (t *Trial) take(k spanKey) *interval {
	iv := t.open[k]
	if iv != nil {
		delete(t.open, k)
		if k.fam == famFlow {
			t.flows--
		}
	}
	return iv
}

// end closes k's interval, if one is open, at now and records its span
// with tail appended to its args.
func (t *Trial) end(k spanKey, now sim.Time, tail ...Arg) {
	if iv := t.take(k); iv != nil {
		t.emit(k, iv, now, tail...)
	}
}

// emit records the span of k's interval up to end, under its family's
// category, name and track, with tail appended to the family's own args.
func (t *Trial) emit(k spanKey, iv *interval, end sim.Time, tail ...Arg) {
	var cat, name, track string
	var args [maxArgs]Arg
	n := 0
	switch k.fam {
	case famFlow:
		cat, name, track = "flow", t.flowLabel(lblFlow, k.flow), "flows"
		args[0], args[1] = Arg{"bytes", float64(iv.bytes)}, Arg{"pkts", float64(iv.pkts)}
		n = 2
	case famLink:
		cat, name, track = "fault", "link-down "+t.labels[k.id], "faults"
	case famHold:
		cat, name, track = "tfc", t.flowLabel(lblHold, k.flow), t.labels[k.id]
	case famRecovery:
		cat, name, track = "tcp", t.flowLabel(lblRecovery, k.flow), "recovery"
	case famLoss:
		cat, name, track = "fault", "loss-on "+t.labels[k.id], "faults"
	}
	n += copy(args[n:], tail)
	t.Span(cat, name, track, iv.start, end, args[:n]...)
}

// --- the one observer ---

// Observe implements netsim.Probe: the trial's own counters, histograms
// and trace spans by record kind, then the same record to the
// observatory's parts that are switched on. It copies packet fields and
// retains no pointers. Timestamps are the record's.
func (t *Trial) Observe(ev netsim.Event) {
	switch ev.Kind {
	case netsim.EvEnqueue:
		t.enq.Inc()
		// Sender-NIC data direction: track the flow's lifetime exactly once
		// per packet (every other hop would double-count). The first
		// data-direction packet opens the flow, FIN closes it.
		if _, isHost := ev.Port.Owner.(*netsim.Host); !isHost || ev.Pkt.Flags&netsim.FlagACK != 0 {
			break
		}
		k := spanKey{fam: famFlow, flow: ev.Flow}
		if ev.Pkt.Flags&netsim.FlagFIN != 0 {
			t.end(k, ev.At)
			break
		}
		iv := t.begin(k, ev.At)
		iv.bytes += int64(ev.Pkt.Payload)
		iv.pkts++
	case netsim.EvDequeue:
		t.deq.Inc()
		// Engine self-profiling: each service completion at a switch port
		// observes the queue length left behind.
		if _, isSwitch := ev.Port.Owner.(*netsim.Switch); isSwitch {
			t.portHist(ev.Port).Observe(float64(ev.Port.QueueLen()))
		}
	case netsim.EvDrop:
		t.drops.Inc()
		t.dropB.Add(int64(ev.Pkt.FrameBytes()))
		t.InstantAt(ev.At, "net", "drop "+t.portLabel(ev.Port), "drops",
			Arg{"flow", float64(ev.Flow)}, Arg{"seq", float64(ev.A)})
	case netsim.EvLink:
		t.faultTransition()
		k := spanKey{fam: famLink, id: int32(ev.Port.Ordinal())}
		if ev.A != 0 {
			t.begin(k, ev.At)
		} else {
			t.end(k, ev.At)
		}
	case netsim.EvLoss:
		t.faultTransition()
		k := spanKey{fam: famLoss, id: int32(ev.Port.Ordinal())}
		if ev.A != 0 {
			// A new model restarts the window.
			t.begin(k, ev.At).start = ev.At
		} else {
			t.end(k, ev.At)
		}
	case netsim.EvSlot:
		t.slots.Inc()
		t.rttm.Observe(sim.Time(ev.A).Micros())
		key := t.portLabel(ev.Port)
		t.CounterEventAt(ev.At, "tfc", "tfc "+key, key,
			Arg{"tokens", ev.X}, Arg{"eflows", float64(ev.B)}, Arg{"window", ev.Y})
	case netsim.EvStamp:
		t.stamped.Inc()
	case netsim.EvHold:
		t.delayed.Inc()
		t.begin(spanKey{famHold, int32(ev.Port.Ordinal()), ev.Flow}, ev.At)
	case netsim.EvGrant:
		t.end(spanKey{famHold, int32(ev.Port.Ordinal()), ev.Flow}, ev.At, Arg{"held", float64(ev.A)})
	case netsim.EvMark:
		t.marked.Inc()
	case netsim.EvPause:
		if ev.A != 0 {
			t.pauses.Inc()
		} else {
			t.resumes.Inc()
		}
	case netsim.EvCwnd:
		t.cwnd.Observe(float64(ev.A))
		t.CounterEventAt(ev.At, "tcp", t.flowLabel(lblCwnd, ev.Flow), "cwnd",
			Arg{"cwnd", float64(ev.A)}, Arg{"ssthresh", float64(ev.B)})
	case netsim.EvRTO:
		t.rtos.Inc()
		t.InstantAt(ev.At, "tcp", t.flowLabel(lblRTO, ev.Flow), "rto", Arg{"backoff", float64(ev.A)})
	case netsim.EvRecovery:
		k := spanKey{fam: famRecovery, flow: ev.Flow}
		if ev.A != 0 {
			t.recs.Inc()
			t.begin(k, ev.At)
		} else {
			t.end(k, ev.At)
		}
	case netsim.EvRetransmit:
		t.rtxBytes.Add(ev.A)
	case netsim.EvCreditRate:
		t.CounterEventAt(ev.At, "credit", t.flowLabel(lblCreditRate, ev.Flow), "credit",
			Arg{"rate", ev.X})
	}
	if t.flight != nil { // the watchdogs are armed
		t.flight.Observe(ev)
		t.watch(ev)
	}
	if t.spanEvery > 0 {
		t.traceJourney(ev)
	}
}

// faultTransition counts one injected fault transition, registering the
// counter on the first: only trials that inject faults export it.
func (t *Trial) faultTransition() {
	if t.faults == nil {
		t.faults = t.Counter("faults.transitions")
	}
	t.faults.Inc()
}

// portHist returns port's dequeue-depth histogram, creating it on first
// use. The set of ports that ever dequeue is a pure function of the
// trial seed, and metric names are sorted at export, so lazy creation
// does not perturb the output.
func (t *Trial) portHist(port *netsim.Port) *Hist {
	i := port.Ordinal()
	if t.qdepth[i] == nil {
		t.qdepth[i] = t.Histogram("port.qdepth_pkts."+t.labels[i],
			0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
	}
	return t.qdepth[i]
}

// --- set-up: attaching the tap and registering metric families ---

// InstrumentNetwork makes the trial the network's probe, subscribed to the
// kinds it reads, formats every
// port's label, and registers the forwarding-path counters and a
// queue-occupancy gauge for every switch port; an observed trial also
// keeps the switch ports for the endpoint's snapshots and sizes the
// flight ring's per-port view. No-op on a nil trial. Call
// after topology construction and Bind; ports wired later are not covered.
// The network must be sequential: a trial's probes run on its simulator's
// goroutine, so a partitioned network (n.Group() != nil) panics.
func InstrumentNetwork(t *Trial, n *netsim.Network) {
	if t == nil {
		return
	}
	if n.Group() != nil {
		panic("telemetry: trial " + t.key + " cannot observe a partitioned network: observed trials run sequentially")
	}
	t.enq = t.Counter("net.enq_pkts")
	t.deq = t.Counter("net.deq_pkts")
	t.drops = t.Counter("net.drops")
	t.dropB = t.Counter("net.drop_bytes")
	t.labels = make([]string, n.NumPorts())
	t.qdepth = make([]*Hist, n.NumPorts())
	for _, node := range n.Nodes() {
		_, isSwitch := node.(*netsim.Switch)
		for _, port := range node.Ports() {
			key := portKey(port)
			t.labels[port.Ordinal()] = key
			if isSwitch {
				t.Gauge("port.qlen."+key, func() float64 { return float64(port.QueueBytes()) })
				if t.o != nil {
					t.swPorts = append(t.swPorts, port)
				}
			}
		}
	}
	if t.flight != nil {
		t.flight.ports = make([]portLast, n.NumPorts())
	}
	n.SetProbe(t, t.kinds())
}

// kinds is the set of records the trial reads off the network: every kind
// when packet spans are on (a journey follows its packet through all of
// them), else the kinds Observe's counters, histograms and spans read —
// not host-side sends, deliveries and strays, nor serialization ends —
// which cover what the flight ring keeps and the watchdogs check.
func (t *Trial) kinds() netsim.KindSet {
	if t.spanEvery > 0 {
		return netsim.AllKinds
	}
	return netsim.AllKinds &^ netsim.KindsOf(netsim.EvHostSend, netsim.EvTx, netsim.EvDeliver, netsim.EvStray)
}

// InstrumentTransport registers the switch-side metric families of the
// named transport and the per-port gauges of every switch running TFC
// (token / effective-flow / window values, read off core.StateOf; other
// transports keep no per-switch state worth sampling). The records
// themselves arrive through the network's probe. Call once per trial,
// after Attach. No-op on a nil trial; unknown names register nothing.
func InstrumentTransport(t *Trial, proto string, switches []*netsim.Switch) {
	if t == nil {
		return
	}
	switch proto {
	case "tfc":
		t.slots = t.Counter("tfc.slots")
		t.stamped = t.Counter("tfc.stamped")
		t.delayed = t.Counter("tfc.delayed_acks")
		// Slot RTTs in microseconds, 1µs .. ~16ms.
		t.rttm = t.Histogram("tfc.rttm_us", 1, 2, 4, 8, 16, 32, 64, 128, 256,
			512, 1024, 2048, 4096, 8192, 16384)
	case "dctcp":
		t.marked = t.Counter("dctcp.marked")
	case "bfc":
		t.pauses = t.Counter("bfc.pauses")
		t.resumes = t.Counter("bfc.resumes")
	}
	for _, sw := range switches {
		ss := core.StateOf(sw)
		if ss == nil {
			continue
		}
		for _, port := range sw.Ports() {
			st := ss.PortState(port)
			if st == nil {
				continue
			}
			key := portKey(port)
			t.Gauge("switch.tokens."+key, func() float64 { return st.Tokens() })
			t.Gauge("switch.eflows."+key, func() float64 { return float64(st.EffectiveFlows()) })
			t.Gauge("switch.window."+key, func() float64 { return st.Window() })
		}
	}
}

// DialProbe returns the sender-side probe for a named transport, shaped
// for workload.Dialer.Probe, registering the sender metric families on
// first use. Every registered transport gets it, out-of-tree ones
// included. Nil (a nil interface) for a nil trial and an unregistered
// name.
func (t *Trial) DialProbe(proto string) netsim.Probe {
	if t == nil || !transport.Registered(proto) {
		return nil
	}
	if t.cwnd == nil {
		t.rtxBytes = t.Counter("flow.rtx_bytes")
		t.rtos = t.Counter("flow.rto")
		t.recs = t.Counter("flow.fast_recovery")
		t.cwnd = t.Histogram("flow.cwnd")
	}
	return t
}
