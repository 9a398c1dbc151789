package telemetry

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Span hop names. A sampled data packet's journey is recorded as a chain
// of parent-linked spans on its flow's track: "queue" (enqueue →
// dequeue), "xmit" (dequeue → serialization done), "wire" (serialization
// → arrival at the next hop's queue), repeated per store-and-forward
// hop, closed by exactly one terminal.
const (
	spanQueue = "queue"
	spanXmit  = "xmit"
	spanWire  = "wire"
	// Terminals.
	spanDeliver = "deliver" // reached its destination endpoint
	spanDrop    = "drop"    // tail-dropped (or lost) at a port
	spanAbort   = "abort"   // superseded by a retransmission of the same seq
	spanOpen    = "open"    // still in flight when the trial flushed
)

// spanTerminals is the set of chain-closing hop names (shared with the
// trace validator).
var spanTerminals = map[string]bool{
	spanDeliver: true, spanDrop: true, spanAbort: true, spanOpen: true,
}

// SpanCat is the trace category all packet-journey spans carry.
const SpanCat = "span"

// spanHop reports whether name is any packet-journey hop name.
func spanHop(name string) bool {
	switch name {
	case spanQueue, spanXmit, spanWire:
		return true
	}
	return spanTerminals[name]
}

// sampledFlow reports whether flow is in the 1-in-every sampled set for
// the given seed — a pure function, so the sampled set is identical at
// any -j.
func sampledFlow(flow netsim.FlowID, every int, seed int64) bool {
	if every <= 0 {
		return false
	}
	return uint64(sim.SubSeed(seed, uint64(flow)))%uint64(every) == 0
}

// journeyKey identifies one packet journey: data packets are keyed by
// (flow, first payload byte).
type journeyKey struct {
	flow netsim.FlowID
	seq  int64
}

// journeyState is an in-flight journey: the virtual time of its last
// recorded transition and the next hop index.
type journeyState struct {
	last sim.Time
	hop  int
}

// journeyIndex is the set of live journeys, with the semantics of a
// map[journeyKey]journeyState: one ring per sampled flow (unsampled flows
// never get one, so their records miss at the flow lookup).
//
// It follows the order in which a flow's packets travel. A flow's live
// journeys are mostly its queued packets, and a sender NIC's backlog can
// hold hundreds of thousands of them (about 735 000 on the 10/10 Gbps
// dumbbell_tcp_observed dumbbell): a hash table over all keys would make
// every hop's lookup a random probe into tens of megabytes. In seq order,
// a new segment's root appends at the tail, and the dequeue/transmit/
// delivery records that follow it land near the head.
type journeyIndex map[netsim.FlowID]*journeyRing

func (x journeyIndex) get(k journeyKey) (journeyState, bool) {
	if e := x[k.flow].find(k.seq); e != nil {
		return journeyState{last: e.last, hop: int(e.hop)}, true
	}
	return journeyState{}, false
}

func (x *journeyIndex) put(k journeyKey, st journeyState) {
	r := (*x)[k.flow]
	if r == nil {
		if *x == nil {
			*x = make(journeyIndex)
		}
		r = &journeyRing{}
		(*x)[k.flow] = r
	}
	r.put(k.seq, st)
}

func (x journeyIndex) del(k journeyKey) {
	r := x[k.flow]
	if e := r.find(k.seq); e != nil {
		r.kill(e)
	}
}

// journeyEntry is one slot of a flow's ring; live is false once the
// journey has ended (its slot is freed when it reaches the head).
type journeyEntry struct {
	seq  int64
	last sim.Time
	hop  int32
	live bool
}

// journeyRing holds one flow's journeys sorted by seq, oldest at head, in
// a power-of-two circular buffer: the n entries at offsets 0..n-1 from
// head. An ended journey is marked dead in place, and dead entries are
// popped once they reach the head, so freed slots are reused and the
// buffer stops growing at the flow's widest in-flight stretch of seqs,
// oldest live journey to newest.
type journeyRing struct {
	buf  []journeyEntry
	head int
	n    int
}

// minJourneyRing is a flow ring's first capacity.
const minJourneyRing = 16

// at returns the entry at offset i from the head.
func (r *journeyRing) at(i int) *journeyEntry {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// search returns the offset of the first entry whose seq is at least
// seq (n if none), galloping from the head: a lookup d entries in costs
// O(log d) probes.
func (r *journeyRing) search(seq int64) int {
	lo, hi := 0, 1
	for hi <= r.n && r.at(hi-1).seq < seq {
		lo, hi = hi, hi*2
	}
	hi = min(hi, r.n)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.at(m).seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns seq's live entry, or nil. Nil-safe: a flow without a ring
// has no live journeys.
func (r *journeyRing) find(seq int64) *journeyEntry {
	if r == nil || r.n == 0 || seq > r.at(r.n-1).seq {
		return nil
	}
	if e := r.at(r.search(seq)); e.seq == seq && e.live {
		return e
	}
	return nil
}

// put sets seq's journey, reviving its dead entry if one is still held.
// A seq above the newest appends at the tail; any other is inserted at
// its sorted place (a retransmission after the original ended, or roots
// that interleave).
func (r *journeyRing) put(seq int64, st journeyState) {
	ent := journeyEntry{seq: seq, last: st.last, hop: int32(st.hop), live: true}
	i := r.n
	if r.n > 0 && seq <= r.at(r.n-1).seq {
		i = r.search(seq)
		if e := r.at(i); e.seq == seq {
			*e = ent
			return
		}
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	mask := len(r.buf) - 1
	if i < r.n/2 {
		// Nearer the head: shift the first i entries back one slot.
		r.head = (r.head - 1) & mask
		for j := 0; j < i; j++ {
			*r.at(j) = *r.at(j + 1)
		}
	} else {
		for j := r.n; j > i; j-- {
			*r.at(j) = *r.at(j - 1)
		}
	}
	*r.at(i) = ent
	r.n++
}

// kill ends e's journey and pops the dead entries at the head.
func (r *journeyRing) kill(e *journeyEntry) {
	e.live = false
	for r.n > 0 && !r.buf[r.head].live {
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.n--
	}
}

// grow doubles a full ring, unwrapping it to start at slot 0.
func (r *journeyRing) grow() {
	buf := make([]journeyEntry, max(2*len(r.buf), minJourneyRing))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

// The span tracer records causal packet spans for sampled flows into the
// trial's recorder. It is driven purely by forwarding-path records; all
// timestamps are virtual, all emitted events enter the recorder's
// canonical order, so the exported trace is byte-identical at any
// parallelism.

// emitHop records one hop span [start, end] for key with the given hop
// index on the flow's span track. Args carry the journey linkage: seq
// identifies the chain within the flow track, hop orders it, parent =
// hop-1 names the causal predecessor (-1 for the chain root).
func (t *Trial) emitHop(key journeyKey, name string, start, end sim.Time, hop int) {
	t.Span(SpanCat, name, t.flowLabel(lblSpan, key.flow), start, end,
		Arg{"seq", float64(key.seq)}, Arg{"hop", float64(hop)}, Arg{"parent", float64(hop - 1)})
}

// stepJourney advances key's journey: emits the [last, now] span as hop
// name and either re-arms the state (terminal=false) or closes the chain.
func (t *Trial) stepJourney(key journeyKey, now sim.Time, name string, terminal bool) {
	r := t.journeys[key.flow]
	e := r.find(key.seq)
	if e == nil {
		return
	}
	t.emitHop(key, name, e.last, now, int(e.hop))
	if terminal {
		r.kill(e)
		return
	}
	e.last, e.hop = now, e.hop+1
}

// traceJourney advances the journey of the data packet a forwarding-path
// record is about; every other record is ignored.
func (t *Trial) traceJourney(ev netsim.Event) {
	if ev.Pkt == nil || !ev.Pkt.IsData() {
		return
	}
	key := journeyKey{ev.Flow, ev.A}
	switch ev.Kind {
	case netsim.EvEnqueue:
		if !sampledFlow(ev.Flow, t.spanEvery, t.o.opts.SpanSeed) {
			return
		}
		if _, isHost := ev.Port.Owner.(*netsim.Host); !isHost {
			// Switch enqueue: close the propagation leg from the previous hop.
			t.stepJourney(key, ev.At, spanWire, false)
			return
		}
		// Journey root: first enqueue at the sender's NIC. A colliding live
		// chain means the sender retransmitted the same seq — close the old
		// chain as aborted and do not trace the retransmission (its hops
		// would be indistinguishable from the original's).
		if st, dup := t.journeys.get(key); dup {
			t.emitHop(key, spanAbort, st.last, ev.At, st.hop)
			t.journeys.del(key)
		} else {
			t.journeys.put(key, journeyState{last: ev.At, hop: 0})
		}
	case netsim.EvDequeue:
		t.stepJourney(key, ev.At, spanQueue, false)
	case netsim.EvTx:
		t.stepJourney(key, ev.At, spanXmit, false)
	case netsim.EvDrop:
		t.stepJourney(key, ev.At, spanDrop, true)
	case netsim.EvDeliver:
		t.stepJourney(key, ev.At, spanDeliver, true)
	}
}

// flushJourneys closes every still-open journey at the trial's final
// virtual time. The flows are visited in map order, which reaches the
// recorder but not the trace: the recorder orders canonically.
func (t *Trial) flushJourneys(now sim.Time) {
	for f, r := range t.journeys {
		for i := 0; i < r.n; i++ {
			if e := r.at(i); e.live {
				t.emitHop(journeyKey{f, e.seq}, spanOpen, e.last, now, int(e.hop))
			}
		}
	}
	t.journeys = nil
}
