package obs

import (
	"sync/atomic"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// trialObs is the observatory's consumer of one trial's event stream
// (telemetry.Consumer): it hands each record to the flight ring, the span
// tracer and the watchdogs that are switched on, keeps the endpoint's
// active-flow set, and carries the lock-free progress mailbox the HTTP
// side reads. Its mutable state other than done, rate, snap and the
// monitor's bookkeeping is touched only from the trial's simulator
// goroutine.
type trialObs struct {
	o    *Observatory
	run  string
	key  string
	t    *telemetry.Trial
	ctl  *sim.Simulator
	done atomic.Bool

	// pulse is the simulator's progress mailbox, made before the trial is
	// published: written by the engine, read lock-free by the
	// HTTP/liveness side.
	pulse *sim.Pulse

	// rate is the monitor-computed recent event throughput (events/sec
	// of wall time), read by the endpoint. lastExec, seen, stalled and
	// flagged are the monitor goroutine's own bookkeeping.
	rate     atomic.Uint64
	lastExec uint64
	seen     bool
	stalled  int
	flagged  bool

	// snap is the endpoint's latest port/flow snapshot, swapped in whole
	// by the virtual-time sampling tick.
	snap atomic.Pointer[TrialSnapshot]

	// ports are the instrumented network's switch ports, fixed at
	// instrumentation time.
	ports []*netsim.Port

	flows map[netsim.FlowID]struct{} // active flows (endpoint only)

	spans  *spanTracer
	flight *flightRing
	token  *tokenWatchdog
	zeroq  *zeroQueueWatchdog
	pair   *pairWatchdog
	rto    *rtoWatchdog
}

// TrialSnapshot is one trial's sampled state, served by the endpoint.
type TrialSnapshot struct {
	VirtualNs   int64      `json:"virtual_ns"`
	ActiveFlows int        `json:"active_flows"`
	Ports       []PortSnap `json:"ports"`
}

// PortSnap is one switch port's sampled queue state.
type PortSnap struct {
	Label      string `json:"label"`
	QueueBytes int64  `json:"queue_bytes"`
	QueueLen   int    `json:"queue_len"`
}

// Bound implements telemetry.Consumer: it attaches the progress mailbox
// to the simulator and, when the endpoint is on, schedules the snapshot
// tick.
func (to *trialObs) Bound(s *sim.Simulator) {
	s.SetPulse(to.pulse)
	to.ctl = s
	if to.flows == nil {
		return
	}
	var tick func()
	tick = func() {
		to.takeSnapshot()
		s.After(sampleEvery, tick)
	}
	s.After(sampleEvery, tick)
}

// Instrumented implements telemetry.Consumer: it captures the trial's
// topology handles once the network is built: switch ports for
// snapshots and the flight ring's per-port table.
func (to *trialObs) Instrumented(n *netsim.Network) {
	for _, node := range n.Nodes() {
		if sw, ok := node.(*netsim.Switch); ok {
			to.ports = append(to.ports, sw.Ports()...)
		}
	}
	if to.flight != nil {
		to.flight.ports = make([]portLast, n.NumPorts())
	}
}

// Flush implements telemetry.Consumer: still-open packet journeys close
// at the trial's final virtual time.
func (to *trialObs) Flush(now sim.Time) {
	if to.spans != nil {
		to.spans.flush(now)
	}
	to.done.Store(true)
}

// takeSnapshot samples port queues and the active-flow count into the
// endpoint's atomic snapshot slot. It runs as a simulator event, so
// these reads do not race the engine.
func (to *trialObs) takeSnapshot() {
	s := &TrialSnapshot{VirtualNs: int64(to.ctl.Now()), ActiveFlows: len(to.flows)}
	s.Ports = make([]PortSnap, 0, len(to.ports))
	for _, p := range to.ports {
		s.Ports = append(s.Ports, PortSnap{
			Label:      to.t.PortLabel(p),
			QueueBytes: int64(p.QueueBytes()),
			QueueLen:   p.QueueLen(),
		})
	}
	to.snap.Store(s)
}

// Observe implements netsim.Probe: one record in, handed to each part
// that is switched on.
func (to *trialObs) Observe(ev netsim.Event) {
	if to.flight != nil {
		to.flight.Observe(ev)
	}
	if to.spans != nil {
		to.spans.Observe(ev)
	}
	switch ev.Kind {
	case netsim.EvEnqueue:
		if to.flows == nil || !ev.Pkt.IsData() {
			break
		}
		if _, isHost := ev.Port.Owner.(*netsim.Host); isHost {
			if ev.Pkt.Flags&netsim.FlagFIN != 0 {
				delete(to.flows, ev.Flow)
			} else {
				to.flows[ev.Flow] = struct{}{}
			}
		}
	case netsim.EvSlot:
		to.token.check(ev)
		to.zeroq.check(ev)
	case netsim.EvPause:
		to.pair.check(ev)
	case netsim.EvRTO:
		to.rto.check(ev)
	}
}
