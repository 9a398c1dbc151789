package netsim

import (
	"math/rand"

	"tfcsim/internal/sim"
)

// PortHook observes and optionally modifies packets entering a port's
// output queue. DCTCP's ECN marker and TFC's per-port token logic are
// implemented as hooks, keeping the switch forwarding path generic.
type PortHook interface {
	// OnEnqueue runs before pkt joins the queue (and before the drop-tail
	// admission check, mirroring hardware that counts arrivals at the
	// port). It may modify pkt in place. Returning false drops the packet.
	OnEnqueue(pkt *Packet, port *Port) bool
}

// Port is a unidirectional transmit port: a drop-tail FIFO feeding a link
// with fixed rate and propagation delay. A full-duplex cable between two
// nodes is a pair of Ports, one owned by each side.
type Port struct {
	sim   *sim.Simulator
	net   *Network
	Owner Node // node that transmits via this port
	Peer  Node // node at the far end of the link
	Label string

	// Sharding state (see shard.go). sh is the owner's shard — the
	// goroutine all of this port's events run on; peerSh is the receiving
	// side's. cross marks a shard-boundary link: deliveries then travel
	// through the group mailbox instead of the local event queue. idx is
	// the port's creation index, the stable identity its loss stream and
	// its delivery rank (the canonical order of simultaneous arrivals at
	// a node, identical in the sequential and sharded engines) are
	// derived from.
	sh     *netShard
	peerSh *netShard
	cross  bool
	idx    uint64
	pos    int // position in Owner.Ports()
	lrand  *rand.Rand

	// Rate is the line rate. It is fixed once a transport attaches:
	// values derived from it at set-up would go stale — TFC's cached
	// bytes per second, DCTCP's marking threshold K, the credit
	// receiver's maximum rate and switch shaper. Changing it between
	// frames is safe only on a port nothing derives a value from: no hook
	// and no transport (TestDeliveryOrder's bare sender NIC).
	Rate  Rate
	Delay sim.Time // propagation delay
	// BufBytes is the queue capacity in frame bytes; 0 means unlimited.
	BufBytes int
	// Hook, if non-nil, runs for every packet entering the queue.
	Hook PortHook
	// loss, if non-nil, decides per packet whether the wire loses it
	// (SetLoss).
	loss LossModel

	q      FIFO[*Packet]
	qBytes int
	busy   bool

	// txEv is the serialization-completion event. A port serializes one
	// frame at a time, so the event is a slot of the port, not a carrier.
	txEv txEvent
	// Link failure state machine (fault injection): while down, arriving
	// packets are dropped at the wire. cutTx marks a frame that was mid-
	// serialization when the link went down — it is lost even if the link
	// comes back before its serialization completes.
	down  bool
	cutTx bool

	// Statistics.
	Drops     int64
	TxPackets int64
	TxFrames  int64 // frame bytes transmitted (excl. wire overhead)
	// MaxQueue is the high-water mark of the queue in bytes.
	MaxQueue int
}

// Index returns the port's position in Owner.Ports(): a dense key under
// which a scheme can keep per-port state of one switch in a slice.
func (p *Port) Index() int { return p.pos }

// Ordinal returns the port's creation index within its network: dense
// from zero, so an observer can keep per-port state of the whole network
// in a slice.
func (p *Port) Ordinal() int { return int(p.idx) }

// QueueBytes returns the current backlog in frame bytes (excluding the
// frame being serialized).
func (p *Port) QueueBytes() int { return p.qBytes }

// QueueLen returns the number of queued frames.
func (p *Port) QueueLen() int { return p.q.Len() }

// Busy reports whether the port is currently serializing a frame.
func (p *Port) Busy() bool { return p.busy }

// Down reports whether the link is currently failed.
func (p *Port) Down() bool { return p.down }

// SetDown fails the link: subsequent Enqueues drop at the wire, and a
// frame mid-serialization is lost. The queued backlog is preserved and
// drains when the link comes back (a pulled-and-replugged cable). Packets
// already past serialization keep propagating — at data-center delays
// they are off the cable within microseconds of the cut.
func (p *Port) SetDown() {
	if p.down {
		return
	}
	p.down = true
	p.cutTx = p.busy
	if p.net.Probe != nil {
		p.net.Probe.Observe(Event{Kind: EvLink, At: p.sim.Now(), Port: p, A: 1})
	}
}

// SetUp restores a failed link; a preserved backlog resumes transmission
// immediately.
func (p *Port) SetUp() {
	if !p.down {
		return
	}
	p.down = false
	if p.net.Probe != nil {
		p.net.Probe.Observe(Event{Kind: EvLink, At: p.sim.Now(), Port: p})
	}
	if !p.busy && p.q.Len() > 0 {
		p.startTx()
	}
}

// SetLoss installs m as the wire's loss model from now on; nil makes the
// wire lossless again. It is the one way to inject loss, so every change
// reaches the probe as an EvLoss record.
func (p *Port) SetLoss(m LossModel) {
	p.loss = m
	if p.net.Probe != nil {
		ev := Event{Kind: EvLoss, At: p.sim.Now(), Port: p}
		if m != nil {
			ev.A = 1
		}
		p.net.Probe.Observe(ev)
	}
}

// Network returns the network the port belongs to.
func (p *Port) Network() *Network { return p.net }

// Sim returns the simulator driving this port — the owner node's shard
// simulator. Hooks and interceptors attached at the port's switch must
// schedule and read time through it.
func (p *Port) Sim() *sim.Simulator { return p.sim }

// rank is the port's delivery rank: deliveries that reach their
// destinations at the same virtual instant execute in port-creation
// order, the same canonical arbitration in the sequential and sharded
// engines (see sim.ScheduleAfterRank). Real switches arbitrate
// simultaneous arrivals deterministically too; this just fixes which
// deterministic order the simulation means.
func (p *Port) rank() int32 { return int32(p.idx) }

// NewPacket returns a zeroed packet from the port's shard pool. Switch-
// side logic that originates packets (e.g. BFC's pause frames) allocates
// through the port so the packet's pool is the shard doing the work.
func (p *Port) NewPacket() *Packet { return p.sh.newPacket() }

// ReleasePacket returns a packet to the port's shard pool. Interceptors
// and hooks that took ownership of a packet and then discard it release
// it here.
func (p *Port) ReleasePacket(pkt *Packet) { p.sh.release(pkt) }

// drop records a dropped packet and returns it to the pool (ownership ends
// here — nothing downstream will see it again).
func (p *Port) drop(pkt *Packet) {
	p.Drops++
	if p.net.Probe != nil {
		p.observe(EvDrop, pkt)
	}
	p.sh.release(pkt)
}

// Enqueue admits a packet to the port. Wire-level failure injection (link
// down, loss model) runs first: it models the cable, so a lost packet must
// never reach the hook — TFC's arrival counter and DCTCP's ECN marker
// count what the port actually receives, and counting packets the wire
// then discards would skew rho and marked-fraction measurements under
// injected loss. Then the hook; then drop-tail admission; then the packet
// joins the FIFO and transmission starts if the line is idle.
func (p *Port) Enqueue(pkt *Packet) {
	if poolCheck {
		checkLive(pkt, "enqueued after release")
	}
	if p.down {
		p.drop(pkt)
		return
	}
	if p.loss != nil && p.loss.Lose(p.lossRand()) {
		p.drop(pkt)
		return
	}
	if p.Hook != nil && !p.Hook.OnEnqueue(pkt, p) {
		p.drop(pkt)
		return
	}
	fb := pkt.FrameBytes()
	if p.BufBytes > 0 && p.qBytes+fb > p.BufBytes {
		p.drop(pkt)
		return
	}
	p.q.Push(pkt)
	p.qBytes += fb
	if p.qBytes > p.MaxQueue {
		p.MaxQueue = p.qBytes
	}
	if p.net.Probe != nil {
		p.observe(EvEnqueue, pkt)
	}
	if !p.busy {
		p.startTx()
	}
}

// txEvent is the port-resident serialization-completion event.
type txEvent struct {
	p   *Port
	pkt *Packet
}

// RunEvent implements sim.EventTarget.
func (e *txEvent) RunEvent() {
	pkt := e.pkt
	e.pkt = nil
	e.p.finishTx(pkt)
}

// rxEvent delivers one frame to the peer after the propagation delay. Any
// number of frames propagate on a wire at once, so each rides its own
// pooled carrier. A port's deliveries share one fixed Delay and one rank
// and are scheduled in serialization order, so the engine's (time,
// schedule instant, rank, seq) key hands them over in exactly that order —
// whether finishTx scheduled them locally or the group mailbox inserted
// them — and arbitrates simultaneous arrivals from several ports by port
// creation order (TestDeliveryOrder). The carrier is drawn from the
// sending shard's pool and returned to the receiving shard's: over a
// crossing link pools migrate capacity, but each is only ever touched by
// its owner.
type rxEvent struct {
	p   *Port
	pkt *Packet
}

// RunEvent implements sim.EventTarget; it executes on the receiving
// (peer's) shard — finishTx scheduled it there or the mailbox moved it
// there — so p.peerSh is this shard and p.Peer a node it owns.
func (e *rxEvent) RunEvent() {
	p, pkt := e.p, e.pkt
	e.p, e.pkt = nil, nil
	sh := p.peerSh
	if p.cross {
		sh.adopt()
	}
	// Only crossing arrivals bring carriers in (a local delivery returns
	// the one it drew), but holding every return to the bound adopt keeps
	// for packets — a shard never has more deliveries in flight than
	// packets it owns — makes it hold by construction.
	if len(sh.rxFree) <= sh.peakLive+pktSlab {
		//tfcvet:allow hotalloc — the free-list append reuses truncation-retained capacity
		sh.rxFree = append(sh.rxFree, e)
	}
	p.Peer.Receive(pkt, p)
}

// startTx begins serializing the head-of-line frame; txEv fires when its
// last bit leaves the port.
func (p *Port) startTx() {
	pkt := p.q.Pop()
	p.qBytes -= pkt.FrameBytes()
	p.busy = true
	if p.net.Probe != nil {
		p.observe(EvDequeue, pkt)
	}
	p.txEv.pkt = pkt
	p.sim.ScheduleAfter(p.Rate.TxTime(pkt.WireBytes()), &p.txEv)
}

// finishTx runs when the frame has fully serialized onto the link.
func (p *Port) finishTx(pkt *Packet) {
	if p.cutTx {
		// The link went down while this frame was on the wire: the frame
		// is lost regardless of whether the link has since come back.
		p.cutTx = false
		p.busy = false
		p.drop(pkt)
		if !p.down && p.q.Len() > 0 {
			p.startTx()
		}
		return
	}
	p.TxPackets++
	p.TxFrames += int64(pkt.FrameBytes())
	if p.net.Probe != nil {
		p.observe(EvTx, pkt)
	}
	pkt.Hops++
	e := p.sh.newRx(p, pkt)
	if p.cross {
		// Shard-boundary link: hand the delivery to the group mailbox.
		// The conservative window guarantees now+Delay is at or past the
		// next epoch boundary, so the event reaches the peer's shard in
		// time; (deadline, now, rank) ordering reproduces the sequential
		// insertion order, including per-port delivery FIFO.
		now := p.sim.Now()
		p.sh.live--
		p.net.group.Post(p.sh.id, p.peerSh.id, now+p.Delay, now, p.rank(), e)
	} else {
		p.sim.ScheduleAfterRank(p.Delay, e, p.rank())
	}
	if p.q.Len() > 0 {
		p.startTx()
	} else {
		p.busy = false
	}
}
