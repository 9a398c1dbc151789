package transport

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Retransmission-timer bounds shared by every transport. No caller ever
// needed a different ceiling, so MaxRTO is a constant, not a knob.
const (
	DefaultMinRTO = 200 * sim.Millisecond // the Linux default of the paper's era
	MaxRTO        = 60 * sim.Second
)

// Connection states of a Reliable.
const (
	stateClosed = iota
	stateSynSent
	stateEstablished
	stateDone
)

// Reliable is the reliable-delivery half of every sender: the byte-stream
// bookkeeping (SndUna <= SndNxt <= Budget), handshake and FIN, the RTT
// estimator, the retransmission timer with its exponential backoff,
// cumulative-ACK processing, go-back-N and single-segment retransmission,
// and the flow's Stats. It makes bytes arrive; it never decides when a
// segment may leave or how many — that is the policy of the protocol that
// embeds it (a congestion window, a switch-assigned window, one segment
// per credit, a pause gate), written as that protocol's trySend and the
// few lines it adds around Ack and Timeout.
//
// A sender embeds a Reliable, calls Init, and registers itself at
// Cfg.Local. Exported fields are for the embedding protocol (and its
// tests); nothing outside a protocol package touches them.
type Reliable struct {
	// Cfg is the connection's configuration with defaults filled in.
	Cfg DialConfig
	// SynFlags are extra flags for the SYN (TFC marks it RM so switches
	// count the new flow); Weight is stamped on every packet sent (TFC's
	// weighted allocation; zero elsewhere).
	SynFlags netsim.Flag
	Weight   uint8

	SndUna  int64 // first unacknowledged byte
	SndNxt  int64 // next new byte to send
	Budget  int64 // total bytes handed to Queue
	Dupacks int   // duplicate ACKs since the last advance
	Backoff uint  // consecutive timeouts: the RTO is shifted left by this

	st      Stats
	est     *RTTEstimator
	rto     *LazyTimer
	state   int
	closing bool
}

// Init fills cfg's defaults and sets up the estimator and the
// retransmission timer; onRTO is the embedding sender's timeout handler
// (which starts by calling Timeout or CountTimeout).
func (r *Reliable) Init(cfg DialConfig, onRTO func()) {
	cfg.FillDefaults()
	r.Cfg = cfg
	r.est = NewRTTEstimator(cfg.MinRTO, MaxRTO, 0)
	r.rto = NewLazyTimer(cfg.Sim, onRTO)
}

// Stats exposes the flow's statistics record.
func (r *Reliable) Stats() *Stats { return &r.st }

// Acked returns cumulative acknowledged bytes.
func (r *Reliable) Acked() int64 { return r.SndUna }

// Queued returns cumulative bytes handed to Queue.
func (r *Reliable) Queued() int64 { return r.Budget }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (r *Reliable) SRTT() sim.Time { return r.est.SRTT() }

// Flight returns the bytes sent and not yet acknowledged.
func (r *Reliable) Flight() int64 { return r.SndNxt - r.SndUna }

// Established reports whether the handshake completed and the flow has
// not finished.
func (r *Reliable) Established() bool { return r.state == stateEstablished }

// Done reports whether the flow finished (closed and fully acknowledged).
func (r *Reliable) Done() bool { return r.state == stateDone }

func (r *Reliable) now() sim.Time { return r.Cfg.Sim.Now() }

// Open starts the handshake by sending the SYN. It must be called once,
// from simulation context.
func (r *Reliable) Open() {
	if r.state != stateClosed {
		return
	}
	r.state = stateSynSent
	r.st.Start = r.now()
	r.sendSYN()
}

// OpenEstablished opens a connection that needs no handshake reply
// (receiver-driven credit): the caller announces the flow itself.
func (r *Reliable) OpenEstablished() bool {
	if r.state != stateClosed {
		return false
	}
	r.state = stateEstablished
	r.st.Start = r.now()
	return true
}

func (r *Reliable) sendSYN() {
	r.Cfg.Local.Send(r.Segment(r.SndNxt, 0, netsim.FlagSYN|r.SynFlags))
	r.ArmRTO()
}

// Connected completes the handshake on a SYN-ACK. It reports whether pkt
// established the connection (false for a duplicate SYN-ACK); the caller
// then starts sending.
func (r *Reliable) Connected(pkt *netsim.Packet) bool {
	if r.state != stateSynSent {
		return false
	}
	r.state = stateEstablished
	r.Backoff = 0
	r.est.Observe(r.now() - pkt.SentAt)
	r.rto.Stop()
	return true
}

// Queue appends n bytes to the stream and reports whether the caller
// should try to send now (the connection is established).
func (r *Reliable) Queue(n int64) bool {
	if n <= 0 || r.closing {
		return false
	}
	r.Budget += n
	return r.state == stateEstablished
}

// Close marks the stream finished; the FIN goes out once everything
// queued is acknowledged (now, if it already is).
func (r *Reliable) Close() {
	r.closing = true
	if r.state == stateEstablished {
		r.FinishIfClosed()
	}
}

// FinishIfClosed completes the flow if Close was called and nothing is
// left unacknowledged.
func (r *Reliable) FinishIfClosed() {
	if r.closing && r.SndUna == r.Budget {
		r.finish()
	}
}

func (r *Reliable) finish() {
	if r.state == stateDone {
		return
	}
	r.state = stateDone
	r.Cfg.Local.Send(r.Segment(r.SndNxt, 0, netsim.FlagFIN))
	r.rto.Stop()
	r.st.Done = true
	r.st.Completed = r.now()
	if r.Cfg.OnComplete != nil {
		r.Cfg.OnComplete()
	}
}

// SegLen returns the size of the segment starting at seq: one MSS, or
// what is left of the stream.
func (r *Reliable) SegLen(seq int64) int64 {
	return min(int64(r.Cfg.MSS), r.Budget-seq)
}

// Segment builds (without sending) a packet of this flow carrying n
// payload bytes at seq. Field assignments, not a struct literal:
// NewPacket returns a zeroed packet, so writing only the non-zero fields
// skips a redundant 96-byte copy on the per-segment fast path.
func (r *Reliable) Segment(seq, n int64, flags netsim.Flag) *netsim.Packet {
	c := &r.Cfg
	p := c.Local.NewPacket()
	p.Flow, p.Src, p.Dst = c.Flow, c.Local.ID(), c.Peer.ID()
	p.Seq, p.Payload, p.Flags = seq, int(n), flags
	p.SentAt, p.Window, p.Weight = c.Sim.Now(), netsim.WindowUnset, r.Weight
	return p
}

// SendNew transmits p, a segment built at SndNxt, as new data.
func (r *Reliable) SendNew(p *netsim.Packet) {
	if r.st.FirstSend == 0 && r.st.BytesAcked == 0 {
		r.st.FirstSend = r.now()
	}
	n := int64(p.Payload) // the network owns p once it is sent
	r.Cfg.Local.Send(p)
	r.SndNxt += n
}

// ArmRTO (re)starts the retransmission timer at the backed-off RTO.
func (r *Reliable) ArmRTO() {
	// Clamp before shifting: d << backoff overflows int64 once backoff
	// grows past ~32 (a long blackout), wrapping negative or to zero and
	// slipping past a post-shift MaxRTO check. d > MaxRTO>>b is exactly
	// d<<b > MaxRTO for the non-overflowing range (Go shifts >= 64 of a
	// positive int64 yield 0, so huge backoffs clamp too).
	d := r.est.RTO()
	if d > MaxRTO>>r.Backoff {
		d = MaxRTO
	} else {
		d <<= r.Backoff
	}
	r.rto.Arm(d)
}

// ArmIfIdle starts the retransmission timer unless it is already
// running. Senders call it whenever they leave something unacknowledged
// outstanding — new data, or a request for credits.
func (r *Reliable) ArmIfIdle() {
	if !r.rto.Armed() {
		r.ArmRTO()
	}
}

// StopRTO disarms the retransmission timer.
func (r *Reliable) StopRTO() { r.rto.Stop() }

// CountTimeout books one expiry of the retransmission timer.
func (r *Reliable) CountTimeout() {
	r.st.Timeouts++
	r.Backoff++
	r.observe(netsim.EvRTO, int64(r.Backoff), 0)
}

// Timeout is how a window-based sender's timeout handler starts: it books
// the expiry, retransmits a lost SYN, and reports whether data is in
// flight — in which case the caller cuts its window, calls GoBackN, sends
// and re-arms.
func (r *Reliable) Timeout() bool {
	if r.state == stateDone {
		return false
	}
	r.CountTimeout()
	if r.state == stateSynSent {
		r.sendSYN()
		return false
	}
	return r.Flight() > 0
}

// Rewind is the go-back-N step: everything past SndUna is sent again.
func (r *Reliable) Rewind() {
	r.SndNxt = r.SndUna
	r.Dupacks = 0
}

// GoBackN rewinds after a timeout, booking the first segment as
// retransmitted (the rest is re-sent as the window reopens).
func (r *Reliable) GoBackN() {
	r.bookRtx(r.SegLen(r.SndUna))
	r.Rewind()
}

// observe hands one sender-side record to the connection's probe, if any.
func (r *Reliable) observe(k netsim.EventKind, a, b int64) {
	if p := r.Cfg.Probe; p != nil {
		p.Observe(netsim.Event{Kind: k, At: r.now(), Flow: r.Cfg.Flow, A: a, B: b})
	}
}

// ProbeCwnd reports a window move to the probe.
func (r *Reliable) ProbeCwnd(cwnd, ssthresh int64) { r.observe(netsim.EvCwnd, cwnd, ssthresh) }

// ProbeRecovery reports a fast-recovery entry or exit to the probe.
func (r *Reliable) ProbeRecovery(enter bool) {
	var a int64
	if enter {
		a = 1
	}
	r.observe(netsim.EvRecovery, a, 0)
}

func (r *Reliable) bookRtx(n int64) {
	r.st.RtxBytes += n
	r.observe(netsim.EvRetransmit, n, 0)
}

// Retransmit resends the segment at SndUna without advancing SndNxt.
func (r *Reliable) Retransmit(flags netsim.Flag) {
	n := r.SegLen(r.SndUna)
	if n <= 0 {
		return
	}
	r.bookRtx(n)
	r.Cfg.Local.Send(r.Segment(r.SndUna, n, flags))
}

// FastRetransmit repairs the hole the third duplicate ACK revealed.
func (r *Reliable) FastRetransmit(flags netsim.Flag) {
	r.st.FastRtx++
	r.Retransmit(flags)
	r.ArmRTO()
}

// Ack applies the cumulative acknowledgment pkt carries. newly > 0 means
// the window advanced by that many bytes (RTT sampled, backoff and
// duplicate count reset); dup means pkt repeats SndUna while data is in
// flight, and Dupacks now counts it. The caller updates its window, then
// calls Rearm, sends, and calls Drained.
func (r *Reliable) Ack(pkt *netsim.Packet) (newly int64, dup bool) {
	switch ack := pkt.Ack; {
	case ack > r.SndUna:
		newly = ack - r.SndUna
		r.st.BytesAcked += newly
		r.est.Observe(r.now() - pkt.SentAt)
		r.SndUna = ack
		if r.SndNxt < ack {
			r.SndNxt = ack
		}
		r.Backoff = 0
		r.Dupacks = 0
	case ack == r.SndUna && r.Flight() > 0:
		r.Dupacks++
		dup = true
	}
	return newly, dup
}

// Rearm restarts the retransmission timer after an advance if the sender
// still has something outstanding, and stops it otherwise.
func (r *Reliable) Rearm(outstanding bool) {
	if outstanding {
		r.ArmRTO()
	} else {
		r.rto.Stop()
	}
}

// Drained fires OnDrain when everything queued is acknowledged, and
// finishes the flow if it was closed.
func (r *Reliable) Drained() {
	if r.SndUna != r.Budget {
		return
	}
	if r.Cfg.OnDrain != nil {
		r.Cfg.OnDrain()
	}
	r.FinishIfClosed()
}
