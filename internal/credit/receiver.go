package credit

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// dataWire is the wire size of one full data segment, the data one
// credit releases.
const dataWire = netsim.MSS + netsim.HeaderBytes + netsim.WireOverheadBytes

// Receiver is the credit source: it paces credit packets to the sender at
// an adaptively controlled rate and piggybacks cumulative ACKs on them.
// Reassembly, FIN bookkeeping and ACK building are the embedded
// transport.Receiver's; when ACKs leave is decided here.
type Receiver struct {
	transport.Receiver
	cfg transport.DialConfig

	crediting bool
	pacer     sim.Timer
	rate      float64 // credits per second
	maxRate   float64
	remaining int64 // sender's most recent remaining-bytes hint

	// Per-epoch waste feedback (time-based epochs).
	epochSent  int
	epochUsed  int
	barren     int // consecutive epochs with zero productive credits
	epochTimer sim.Timer
}

// NewReceiver creates (and registers at the peer host) the credit source.
// The receiver's timers (credit pacer, waste epochs) run on the peer
// host's simulator, so its config is rebound to it here.
func NewReceiver(cfg transport.DialConfig) *Receiver {
	cfg.FillDefaults()
	cfg.Sim = cfg.Peer.Sim()
	r := &Receiver{cfg: cfg, remaining: -1}
	r.Receiver = transport.Receiver{Host: cfg.Peer, Peer: cfg.Local, Flow: cfg.Flow}
	nicBps := cfg.Peer.NIC().Rate.BytesPerSecond()
	r.maxRate = nicBps / dataWire // credits/s that fill the NIC with data
	r.rate = r.maxRate * initRate
	cfg.Peer.Register(cfg.Flow, r)
	return r
}

// Rate returns the current credit rate in credits/second.
func (r *Receiver) Rate() float64 { return r.rate }

// Deliver processes packets from the sender.
func (r *Receiver) Deliver(pkt *netsim.Packet) {
	switch {
	case pkt.Flags&netsim.FlagFIN != 0:
		r.Fin()
		r.stop()
	case pkt.Flags&netsim.FlagSYN != 0 || pkt.Flags&netsim.FlagCRD != 0:
		// Flow announcement or explicit credit request.
		r.remaining = pkt.Window
		if r.remaining > 0 {
			r.start()
		}
	case pkt.Payload > 0:
		r.Reasm.Add(pkt.Seq, pkt.Payload)
		r.remaining = pkt.Window
		r.epochUsed++
		if r.remaining <= 0 && r.Reasm.Buffered() == 0 {
			// Everything announced has arrived in order; the stream will
			// re-request credits if more data shows up. The completing
			// cumulative ACK travels as a *plain* ACK, not a credit: a
			// credit would pass the switch shaper, which may drop it —
			// and a dropped completion costs the sender a 200ms RTO.
			r.stop()
			r.sendAck()
		} else {
			r.start()
		}
	}
}

func (r *Receiver) start() {
	if r.crediting {
		return
	}
	r.crediting = true
	r.barren = 0
	r.epochSent, r.epochUsed = 0, 0
	r.schedule()
	r.scheduleEpoch()
}

func (r *Receiver) stop() {
	r.crediting = false
	r.pacer.Stop()
	r.epochTimer.Stop()
}

func (r *Receiver) scheduleEpoch() {
	r.epochTimer.Stop()
	r.epochTimer = r.cfg.Sim.ScheduleAfter(epoch, (*epochEvent)(r))
}

func (r *Receiver) onEpoch() {
	if !r.crediting {
		return
	}
	r.feedback()
	r.scheduleEpoch()
}

// epochEvent and tickEvent are the receiver itself as the target of its
// two timers, so arming either allocates nothing.
type (
	epochEvent Receiver
	tickEvent  Receiver
)

// RunEvent implements sim.EventTarget.
func (e *epochEvent) RunEvent() { (*Receiver)(e).onEpoch() }

// RunEvent implements sim.EventTarget.
func (e *tickEvent) RunEvent() { (*Receiver)(e).tick() }

func (r *Receiver) schedule() {
	r.pacer.Stop()
	gap := sim.Time(float64(sim.Second) / r.rate)
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	r.pacer = r.cfg.Sim.ScheduleAfter(gap, (*tickEvent)(r))
}

func (r *Receiver) tick() {
	if !r.crediting {
		return
	}
	r.sendCredit()
	r.epochSent++
	r.schedule()
}

// feedback is the ExpressPass-style credit-rate control: multiplicative
// decrease proportional to the wasted-credit fraction, additive increase
// otherwise (AIMD — a multiplicative probe would let an early winner keep
// doubling away from a starved competitor instead of converging to fair
// shares at the shared credit shaper).
func (r *Receiver) feedback() {
	if r.epochSent == 0 {
		// Too slow to have sent even one credit this epoch: probe upward
		// anyway, or a collapsed rate can never recover (the additive
		// increase must not be paced by the collapsed rate itself).
		r.rate += r.maxRate / 64
	} else {
		waste := float64(r.epochSent-r.epochUsed) / float64(r.epochSent)
		switch {
		case waste > wasteTarget:
			f := 1 - waste/2
			if f < 0.5 {
				f = 0.5
			}
			r.rate *= f
		default:
			r.rate += r.maxRate / 64
		}
	}
	if r.rate > r.maxRate {
		r.rate = r.maxRate
	}
	if min := r.maxRate / 256; r.rate < min {
		r.rate = min
	}
	if r.cfg.Probe != nil {
		r.cfg.Probe.Observe(netsim.Event{Kind: netsim.EvCreditRate, At: r.cfg.Sim.Now(), Flow: r.cfg.Flow, X: r.rate})
	}
	if r.epochUsed == 0 {
		r.barren++
		// Only give up on a flow that claims to have nothing left (the
		// drained case is normally handled on the data path; this is the
		// safety net for lost tails). A backlogged sender whose credits
		// are being shaped away must keep receiving floor-rate credits,
		// or every shaper drop would cost a 200ms RTO.
		if r.barren >= 1000 || (r.remaining <= 0 && r.barren >= 3) {
			r.stop()
		}
	} else {
		r.barren = 0
	}
	r.epochSent, r.epochUsed = 0, 0
}

func (r *Receiver) sendCredit() {
	r.SendAck(netsim.FlagCRD|netsim.FlagACK, r.cfg.Sim.Now(), netsim.WindowUnset)
}

// sendAck emits a plain cumulative ACK (not subject to credit shaping and
// never spending a credit at the sender).
func (r *Receiver) sendAck() {
	r.SendAck(netsim.FlagACK, r.cfg.Sim.Now(), netsim.WindowUnset)
}

// Shaper rate-limits credit packets at switches so the data they trigger
// cannot exceed the forward path's capacity. Credits beyond the pace are
// *queued* up to a small limit — the queued backlog is what keeps the
// data pipe full while per-flow credit rates hunt — and dropped beyond it
// (dropping 64-byte credits is the scheme's safety valve; the drop is the
// senders' waste-feedback signal).
type Shaper struct {
	pacers []netsim.Pacer // by Port.Index() of the switch's ports at attach
}

// The shaper's fixed constants.
const (
	// shaperRho0 is the fraction of a port's data-carrying capacity its
	// credit bucket is fed at (TFC's ρ0 target).
	shaperRho0 = 0.97
	// queueCap is the per-port credit queue limit.
	queueCap = 16
)

// AttachShaper installs credit shaping on a switch, running on the
// switch's own simulator: one pacer per data port, fed at shaperRho0 of
// the port's data-carrying capacity in credits (one per dataWire bytes),
// starting with one credit and holding at most two.
func AttachShaper(sw *netsim.Switch) *Shaper {
	sh := &Shaper{pacers: make([]netsim.Pacer, len(sw.Ports()))}
	for i, p := range sw.Ports() {
		sh.pacers[i].Init(sw.Sim(), shaperRho0*p.Rate.BytesPerSecond()/dataWire, 1, 2, 1, nil)
	}
	sw.Interceptor = sh
	return sh
}

// Intercept implements netsim.Interceptor: paced credits consult the
// pacer of the port their data will traverse.
func (sh *Shaper) Intercept(pkt *netsim.Packet, out *netsim.Port, sw *netsim.Switch) bool {
	const crd = netsim.FlagCRD | netsim.FlagACK
	if pkt.Flags&crd != crd {
		return false
	}
	dataPort := sw.PortFor(pkt.Flow, pkt.Src)
	if dataPort == nil || dataPort.Index() >= len(sh.pacers) {
		return false
	}
	pc := &sh.pacers[dataPort.Index()]
	if pc.Take() {
		return false
	}
	if pc.Len() >= queueCap {
		out.ReleasePacket(pkt) // credit shaped away: a drop at out
		return true
	}
	pc.Hold(pkt, out)
	return true
}
