// Package probepure is an analysistest fixture for the probepure
// analyzer: consumers of the event stream implementing the single-method
// netsim.Probe observer interface (one Observe that switches on the
// record's kind), plus the factory pattern (a *Probe method returning the
// closure that becomes an installed observer body).
package probepure

import (
	"math/rand"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// countConsumer implements netsim.Probe (root via the interface — its
// name matches no pattern): every arm of its Observe switch must observe
// without touching the simulation.
type countConsumer struct {
	enq   int64
	drops int64
	hist  []int
	last  netsim.Event
}

func (c *countConsumer) Observe(ev netsim.Event) {
	switch ev.Kind {
	case netsim.EvEnqueue:
		p := ev.Port
		c.enq++ // a consumer owns its counters
		c.hist = append(c.hist, p.QueueBytes())
		c.last = ev
		c.last.Pkt = nil         // its own copy of the record: fine
		p.EnqPackets++           // want "probe code in Observe writes simulation state"
		p.Enqueue(ev.Pkt)        // want "probe code in Observe calls p.Enqueue"
		p.Sim().Schedule(0, nil) // want "probe code in Observe schedules an event"
	case netsim.EvDrop:
		c.drops++
		_ = ev.Pkt.FrameBytes()  // value-receiver-free read accessor: fine
		_ = ev.Port.Sim().Rand() // want "probe code in Observe obtains a simulation Rand stream"
		_ = rand.Intn(4)         // want "probe code in Observe touches math/rand"
	case netsim.EvSlot:
		c.note(ev.Port)
	}
}

// note is reachable from a probe root: the purity obligation follows the
// call graph out of the switch arm.
func (c *countConsumer) note(p *netsim.Port) {
	p.QBytes = 0 // want "probe code in note writes simulation state"
}

// Tracker shows the factory pattern: FaultProbe's returned closure is the
// observer body, and function literals are attributed to their enclosing
// declaration.
type Tracker struct{ marks int64 }

func (t *Tracker) FaultProbe() func(p *netsim.Port) {
	return func(p *netsim.Port) {
		t.marks++
		p.EnqPackets = 0 // want "probe code in FaultProbe writes simulation state"
	}
}

// install is ordinary wiring code, not probe context: it may mutate
// freely.
func install(n *netsim.Network, p *netsim.Port, s *sim.Simulator) {
	p.EnqPackets = 0
	s.Schedule(0, nil)
}

// annotated shows the escape hatch.
type flushProbe struct{ port *netsim.Port }

func (f *flushProbe) Observe(ev netsim.Event) {
	//tfcvet:allow probepure — fixture: debug probe variant that intentionally resets the port counter
	ev.Port.EnqPackets = 0
}

// tokenWatchdog mirrors obs's invariant predicates (root via the
// receiver-name Watchdog suffix): a watchdog runs inside Observe on the
// forwarding path and must observe without touching the simulation.
type tokenWatchdog struct{ tripped bool }

func (w *tokenWatchdog) check(ev netsim.Event) {
	if w.tripped {
		return
	}
	w.tripped = true // a watchdog owns its trip latch
	if ev.Port.QueueBytes() > 0 {
		ev.Port.QBytes = 0 // want "probe code in check writes simulation state"
	}
}

// takeSnapshot mirrors obs's endpoint state readers (root via the
// Snapshot name suffix): sampling live simulator state must be a pure
// read whether it runs as a virtual-time event or behind HTTP.
func takeSnapshot(p *netsim.Port, s *sim.Simulator) int {
	s.After(1, nil) // want "probe code in takeSnapshot schedules an event"
	return p.QueueBytes()
}

// fanOut hands the record on to other probes, as telemetry's Trial does
// for its consumers: allowed — the callee is a *Probe interface
// implementation held to the same contract as a root.
type fanOut struct{ next []netsim.Probe }

func (f *fanOut) Observe(ev netsim.Event) {
	for _, c := range f.next {
		c.Observe(ev)
	}
}
