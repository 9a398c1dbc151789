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
	cfg Config

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

	// CreditsSent counts credits emitted (diagnostics).
	CreditsSent int64
}

// NewReceiver creates (and registers at the peer host) the credit source.
// The receiver's timers (credit pacer, waste epochs) run on the peer
// host's simulator, so its config is rebound to it here.
func NewReceiver(cfg Config) *Receiver {
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
	// An absolute deadline: the gap changes with every rate update, and a
	// relative one would pin a fixed-delay lane per value (ScheduleAfter).
	r.pacer = r.cfg.Sim.Schedule(r.cfg.Sim.Now()+gap, (*tickEvent)(r))
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
	r.CreditsSent++
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
	s    *sim.Simulator
	bkts []bucket // by Port.Index() of the switch's ports at attach
	// Dropped counts shaped-away credits.
	Dropped int64
	// Queued counts credits that waited in a credit queue.
	Queued int64
}

type heldCredit struct {
	pkt *netsim.Packet
	out *netsim.Port
}

// bucket is one data port's credit pacer. The held credits are
// queue[head:], oldest first; the bucket is its release timer's target.
type bucket struct {
	sh      *Shaper
	tokens  float64
	last    sim.Time
	rate    float64 // credits per second
	queue   []heldCredit
	head    int
	release sim.Timer
}

func (b *bucket) held() int { return len(b.queue) - b.head }

// RunEvent implements sim.EventTarget.
func (b *bucket) RunEvent() { b.sh.onRelease(b) }

// The shaper's fixed constants.
const (
	// shaperRho0 is the fraction of a port's data-carrying capacity its
	// credit bucket is fed at (TFC's ρ0 target).
	shaperRho0 = 0.97
	// queueCap is the per-port credit queue limit.
	queueCap = 16
)

// AttachShaper installs credit shaping on a switch (one bucket per data
// port, fed at shaperRho0 of the port's data-carrying capacity), running
// on the switch's own simulator.
func AttachShaper(sw *netsim.Switch) *Shaper {
	sh := &Shaper{s: sw.Sim(), bkts: make([]bucket, len(sw.Ports()))}
	for i, p := range sw.Ports() {
		sh.bkts[i] = bucket{
			sh:     sh,
			tokens: 1,
			rate:   shaperRho0 * p.Rate.BytesPerSecond() / dataWire,
		}
	}
	sw.Interceptor = sh
	return sh
}

// Intercept implements netsim.Interceptor: paced credits consult the
// bucket of the port their data will traverse.
func (sh *Shaper) Intercept(pkt *netsim.Packet, out *netsim.Port, sw *netsim.Switch) bool {
	const crd = netsim.FlagCRD | netsim.FlagACK
	if pkt.Flags&crd != crd {
		return false
	}
	dataPort := sw.PortFor(pkt.Flow, pkt.Src)
	if dataPort == nil || dataPort.Index() >= len(sh.bkts) {
		return false
	}
	b := &sh.bkts[dataPort.Index()]
	sh.refill(b)
	if b.tokens >= 1 && b.held() == 0 {
		b.tokens--
		return false
	}
	if b.held() >= queueCap {
		sh.Dropped++
		out.ReleasePacket(pkt) // credit shaped away
		return true
	}
	//tfcvet:allow poolsafe,hotalloc — deliberate ownership transfer (returning true tells the switch the credit is held; scheduleRelease re-injects it), and the shaper queue is drained by truncation so its backing array amortizes to steady capacity
	b.queue = append(b.queue, heldCredit{pkt, out})
	sh.Queued++
	sh.scheduleRelease(b)
	return true
}

func (sh *Shaper) refill(b *bucket) {
	now := sh.s.Now()
	b.tokens += b.rate * (now - b.last).Seconds()
	b.last = now
	if b.tokens > 2 {
		b.tokens = 2
	}
}

func (sh *Shaper) scheduleRelease(b *bucket) {
	if b.release.Active() {
		return
	}
	need := 1 - b.tokens
	if need < 0 {
		need = 0
	}
	d := sim.Time(need / b.rate * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	b.release = sh.s.Schedule(sh.s.Now()+d, b) // deficit-dependent: not a lane delay
}

func (sh *Shaper) onRelease(b *bucket) {
	sh.refill(b)
	for b.held() > 0 && b.tokens >= 1 {
		var h heldCredit
		h, b.queue, b.head = transport.PopHead(b.queue, b.head)
		b.tokens--
		h.out.Enqueue(h.pkt)
	}
	if b.held() > 0 {
		sh.scheduleRelease(b)
	}
}
