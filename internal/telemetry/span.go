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

// journeyTable is an open-addressing hash table from journeyKey to
// journeyState, kept for speed. Every sampled packet inserts a fresh
// (flow, seq) and deletes it a few hops later; a built-in map takes that
// churn without allocating once grown (Go 1.24: none over 20 M
// insert/delete pairs with 300 live keys), but it is slower — with a map
// in its place, dumbbell_tcp_observed's run_s went from 3.01 / 3.25 /
// 3.36 s to 3.90 / 3.97 / 4.26 s (alternated runs, seed 3, -seconds 4,
// 2 CPUs).
// Linear probing with backward-shift deletion leaves no tombstones, so
// once the table has grown to the peak in-flight count it never allocates
// again.
type journeyTable struct {
	slots []journeySlot
	n     int
}

type journeySlot struct {
	key  journeyKey
	st   journeyState
	live bool
}

func (t *journeyTable) hash(k journeyKey) uint64 {
	x := uint64(k.flow)*0x9E3779B97F4A7C15 + uint64(k.seq)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func (t *journeyTable) get(k journeyKey) (journeyState, bool) {
	if t.n == 0 {
		return journeyState{}, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.hash(k) & mask; t.slots[i].live; i = (i + 1) & mask {
		if t.slots[i].key == k {
			return t.slots[i].st, true
		}
	}
	return journeyState{}, false
}

func (t *journeyTable) put(k journeyKey, st journeyState) {
	if len(t.slots) == 0 || t.n+1 > len(t.slots)*3/4 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := t.hash(k) & mask
	for t.slots[i].live {
		if t.slots[i].key == k {
			t.slots[i].st = st
			return
		}
		i = (i + 1) & mask
	}
	t.slots[i] = journeySlot{key: k, st: st, live: true}
	t.n++
}

// del removes k, backward-shifting the probe chain so lookups never see
// a hole mid-chain and the table carries no tombstones.
func (t *journeyTable) del(k journeyKey) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.slots) - 1)
	i := t.hash(k) & mask
	for t.slots[i].live {
		if t.slots[i].key == k {
			break
		}
		i = (i + 1) & mask
	}
	if !t.slots[i].live {
		return
	}
	t.n--
	j := i
	for {
		j = (j + 1) & mask
		if !t.slots[j].live {
			break
		}
		home := t.hash(t.slots[j].key) & mask
		// Shift j back into the hole at i unless j sits between its home
		// slot and i (cyclically), in which case moving it would break its
		// own probe chain.
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = journeySlot{}
}

func (t *journeyTable) grow() {
	old := t.slots
	size := 64
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]journeySlot, size)
	t.n = 0
	for _, s := range old {
		if s.live {
			t.put(s.key, s.st)
		}
	}
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
	st, ok := t.journeys.get(key)
	if !ok {
		return
	}
	t.emitHop(key, name, st.last, now, st.hop)
	if terminal {
		t.journeys.del(key)
		return
	}
	t.journeys.put(key, journeyState{last: now, hop: st.hop + 1})
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
// virtual time. Table order reaches the recorder, but not the trace: the
// recorder orders canonically.
func (t *Trial) flushJourneys(now sim.Time) {
	for _, s := range t.journeys.slots {
		if s.live {
			t.emitHop(s.key, spanOpen, s.st.last, now, s.st.hop)
		}
	}
	t.journeys = journeyTable{}
}
