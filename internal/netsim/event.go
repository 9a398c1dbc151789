package netsim

import "tfcsim/internal/sim"

// EventKind classifies an observation record.
type EventKind uint8

// Every point the simulator can be observed at, grouped by the package
// that emits it. The comments give each kind's numeric fields.
const (
	// Forwarding path (netsim). Pkt is set and valid only for the duration
	// of the Observe call; Flow and A copy its flow and Seq, B is the
	// port's queue in bytes after the event (0 for the host-side kinds).
	EvHostSend EventKind = iota // transport handed the packet to Host
	EvEnqueue                   // admitted to Port's queue
	EvDequeue                   // left the queue to start serialization
	EvTx                        // frame fully serialized onto the link
	EvDrop                      // dropped (wire loss, hook veto, drop-tail, cut)
	EvDeliver                   // about to reach its endpoint at Host
	EvStray                     // arrived at Host with no endpoint
	EvLink                      // Port's link failed (A=1) or recovered (A=0)

	// TFC control plane (core), at Port.
	EvSlot  // time slot closed: A=rtt_m (ns), B=E, X=T, Y=W, Z=rho
	EvStamp // Flow's window field stamped down to A
	EvHold  // delay arbiter queued Flow's RMA ACK; A=queue length with it
	EvGrant // held ACK released; A=queue length after

	// Switch-side baselines, at Port.
	EvMark  // DCTCP marked Flow's packet CE
	EvPause // BFC signalled XOF (A=1) or XON (A=0) for Flow

	// Sender side (transport), emitted through the per-dial tap
	// (transport.DialConfig.Probe); Port and Host are nil.
	EvCwnd       // congestion window moved: A=cwnd, B=ssthresh
	EvRTO        // retransmission timer expired: A=backoff step
	EvRecovery   // fast recovery entered (A=1) or left (A=0)
	EvRetransmit // A bytes retransmitted
	EvCreditRate // credit source adjusted to X credits/s

	NumEventKinds // count of kinds, not a kind
)

var eventKindNames = [NumEventKinds]string{
	"SEND", "ENQ", "DEQ", "TX", "DROP", "RECV", "STRAY", "LINK",
	"SLOT", "STAMP", "HOLD", "GRANT", "MARK", "PAUSE",
	"CWND", "RTO", "RECOV", "RTX", "CREDIT",
}

// String names the kind.
func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventKindNames[k]
	}
	return "?"
}

// Event is the one observation record: every emit point in the simulator
// fills one and hands it, by value, to the Probe. At is the emitting
// entity's own clock (its shard simulator in a partitioned network).
type Event struct {
	Kind EventKind
	At   sim.Time
	Port *Port
	Host *Host
	Pkt  *Packet
	Flow FlowID
	// Kind-specific numbers; see the EventKind constants.
	A, B    int64
	X, Y, Z float64
}

// Where names the place the event happened: the port's label, the host's
// name for host-side kinds, "" for sender-side ones.
func (e Event) Where() string {
	switch {
	case e.Port != nil:
		return e.Port.Label
	case e.Host != nil:
		return e.Host.name
	}
	return ""
}

// Probe is the simulator's one observer interface: telemetry, the
// observatory's consumers and tfctrace all receive the same Event stream
// through it. Implementations must treat the record's pointers as
// read-only snapshots: copy any packet fields they need and do not retain
// Pkt — with pooling on, the packet is recycled as soon as Observe
// returns. Probes run on the simulation's virtual timeline and must not
// mutate simulation state, schedule events or draw from its Rand
// (TestTelemetryResultsNeutral and TestObservatoryResultsNeutral check
// this). Observe runs on the trial's simulator goroutine: observed
// trials are sequential (telemetry refuses a partitioned network), so
// implementations keep their state unlocked.
type Probe interface {
	Observe(Event)
}

// observe emits a packet-lifecycle record at port p. Callers check
// p.net.Probe != nil first, so the disabled path is that one nil-check.
func (p *Port) observe(k EventKind, pkt *Packet) {
	p.net.Probe.Observe(Event{Kind: k, At: p.sim.Now(), Port: p, Pkt: pkt,
		Flow: pkt.Flow, A: pkt.Seq, B: int64(p.qBytes)})
}

// observe emits a packet-lifecycle record at host h (same contract).
func (h *Host) observe(k EventKind, pkt *Packet) {
	h.net.Probe.Observe(Event{Kind: k, At: h.sh.sim.Now(), Host: h, Pkt: pkt,
		Flow: pkt.Flow, A: pkt.Seq})
}
