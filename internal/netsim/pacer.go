package netsim

import "tfcsim/internal/sim"

// Pacer is a token bucket that paces packets into their output ports. It
// refills at rate tokens per second, capped at burst; admitting a packet
// costs cost tokens. Take admits a packet at once when nothing is held and
// the bucket covers it; Hold queues one instead, and the pacer, the target
// of its own release timer, re-injects held packets oldest first at the
// instants the bucket covers each. Tokens may be charged below zero, which
// delays the next release. Held packets are the pacer's until released.
//
// It is TFC's ACK delay arbiter (paper §4.6) and each port's credit
// shaper bucket in the credit baseline. A Pacer must not be copied after
// Init.
type Pacer struct {
	// Tokens is the bucket level as of the last refill.
	Tokens float64

	rate, cost, burst float64
	last              sim.Time
	s                 *sim.Simulator
	grant             func(*Packet)
	held              FIFO[heldPacket]
	release           sim.Timer
}

type heldPacket struct {
	pkt *Packet
	out *Port
}

// Init starts the bucket on s at tokens, now. grant, if non-nil, runs on
// each held packet as it is released, before it is enqueued at its port.
func (p *Pacer) Init(s *sim.Simulator, rate, cost, burst, tokens float64, grant func(*Packet)) {
	*p = Pacer{Tokens: tokens, rate: rate, cost: cost, burst: burst, last: s.Now(), s: s, grant: grant}
}

// Len returns the number of held packets.
func (p *Pacer) Len() int { return p.held.Len() }

// refill adds the tokens earned since the last refill, capped at burst.
func (p *Pacer) refill() {
	now := p.s.Now()
	p.Tokens += p.rate * (now - p.last).Seconds()
	if p.Tokens > p.burst {
		p.Tokens = p.burst
	}
	p.last = now
}

// Charge removes n tokens, leaving the bucket negative if it held fewer.
func (p *Pacer) Charge(n float64) {
	p.refill()
	p.Tokens -= n
}

// Take admits one packet now if nothing is held and the bucket covers its
// cost, and reports whether it did.
func (p *Pacer) Take() bool {
	p.refill()
	if p.held.Len() == 0 && p.Tokens >= p.cost {
		p.Tokens -= p.cost
		return true
	}
	return false
}

// Hold queues pkt for release into out.
func (p *Pacer) Hold(pkt *Packet, out *Port) {
	p.refill()
	p.held.Push(heldPacket{pkt, out})
	p.schedule()
}

// schedule arms the release timer for the instant the bucket will cover
// one cost, at least 1 ns ahead, unless it is armed already.
func (p *Pacer) schedule() {
	if p.release.Active() {
		return
	}
	d := sim.Time((p.cost - p.Tokens) / p.rate * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	p.release = p.s.ScheduleAfter(d, p)
}

// RunEvent implements sim.EventTarget: release every held packet the
// bucket covers, then re-arm for the next.
func (p *Pacer) RunEvent() {
	p.refill()
	for p.held.Len() > 0 && p.Tokens >= p.cost {
		h := p.held.Pop()
		p.Tokens -= p.cost
		if p.grant != nil {
			p.grant(h.pkt)
		}
		h.out.Enqueue(h.pkt)
	}
	if p.held.Len() > 0 {
		p.schedule()
	}
}
