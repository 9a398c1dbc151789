package core

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// Config parameterizes one TFC connection: the protocol-independent
// transport.DialConfig plus TFC's one knob.
type Config struct {
	transport.DialConfig

	// Weight is the flow's share weight for TFC's weighted allocation
	// policy (paper §4.1): a weight-w flow is assigned w fair shares of
	// the token pool at every switch. Default 1; max 255.
	Weight int
}

// weight is Weight as it travels in the packet header.
func (c Config) weight() uint8 { return uint8(min(max(c.Weight, 1), 255)) }

// Sender is the sending half of a TFC connection: an ordinary reliable
// byte stream (transport.Reliable — reliability is TCP's, paper §5.3)
// whose window is entirely switch-assigned: it is whatever the last RMA
// ACK carried. The sender marks the first packet of every round with RM
// (one RM per RMA received), giving switches their effective-flow count
// and RTT samples.
type Sender struct {
	transport.Reliable

	cwnd     int64 // bytes; from last RMA
	markNext bool
	// awaiting is the window-acquisition phase (paper §4.6): a probe is
	// out and no data moves until its RMA brings the window.
	awaiting  bool
	lastAckAt sim.Time
	minRTT    sim.Time // smallest RTT sample seen (pacing-free baseline)
	tailSeq   int64    // seq of the in-flight window-limited sub-MSS segment, -1 if none

	// RMAs counts window updates received (diagnostics).
	RMAs int64
	// Probes counts window-acquisition probes sent (initial + resumes).
	Probes int64
}

// NewSender creates (and registers at the local host) a TFC sender.
func NewSender(cfg Config) *Sender {
	s := &Sender{tailSeq: -1}
	s.Init(cfg.DialConfig, s.onRTO)
	// The SYN is RM-marked so switches count the new flow (Fig 2).
	s.SynFlags = netsim.FlagRM
	s.Weight = cfg.weight()
	cfg.Local.Register(cfg.Flow, s)
	return s
}

// Dial creates a TFC sender and its matching receiver.
func Dial(cfg Config) (*Sender, *transport.Receiver) {
	return NewSender(cfg), transport.NewReceiver(cfg.Peer, cfg.Local, cfg.Flow)
}

// Cwnd returns the switch-assigned window in bytes.
func (s *Sender) Cwnd() int64 { return s.cwnd }

// Send queues n more bytes on the stream. A flow resuming after an idle
// period re-acquires its window with a probe first: its stale window no
// longer reflects the switch's allocation (the flow was not counted in E
// while silent), and a synchronized resume — e.g. every round of a
// barrier incast — would otherwise burst one stale window per flow into
// the bottleneck. This mirrors the establishment-time window-acquisition
// phase (§4.6) applied to the on-off flows of §2.
func (s *Sender) Send(n int64) {
	wasIdle := s.SndUna == s.Budget
	if !s.Queue(n) || s.awaiting {
		return
	}
	if wasIdle && s.Cfg.Sim.Now()-s.lastAckAt > s.idleProbeAfter() {
		s.sendProbe()
		return
	}
	s.trySend()
}

// idleProbeAfter is the silence gap beyond which a resume re-probes. It
// is based on the minimum observed RTT, not SRTT: under the switch delay
// arbiter, RTT samples include pacing delay (up to one token-bucket cycle
// of the whole fan-in), which would push an SRTT-based threshold past the
// barrier gaps of synchronized workloads and let every round start with a
// one-packet-per-flow burst.
func (s *Sender) idleProbeAfter() sim.Time {
	if s.minRTT > 0 {
		return 2 * s.minRTT
	}
	return sim.Millisecond
}

func (s *Sender) trackMinRTT(pkt *netsim.Packet) {
	if rtt := s.Cfg.Sim.Now() - pkt.SentAt; s.minRTT == 0 || rtt < s.minRTT {
		s.minRTT = rtt
	}
}

// sendProbe enters the window-acquisition phase by emitting its
// zero-payload RM packet: it is counted as an effective flow and its RMA
// ACK carries the proper window before any data is transmitted, avoiding
// the burst drops of synchronized new flows (paper §4.6).
func (s *Sender) sendProbe() {
	s.awaiting = true
	s.Probes++
	s.Cfg.Local.Send(s.Segment(s.SndNxt, 0, netsim.FlagRM))
	s.ArmRTO()
}

// roundMark returns (and consumes) the RM flag if the next segment is to
// carry the round mark.
func (s *Sender) roundMark(rm bool) netsim.Flag {
	if !rm {
		return 0
	}
	s.markNext = false
	return netsim.FlagRM
}

func (s *Sender) trySend() {
	if !s.Established() || s.awaiting {
		return
	}
	// The switch assigns byte windows that rarely land on packet
	// multiples; the sender fills the window *exactly*, emitting a final
	// sub-MSS segment when needed (as a window-limited Linux stack does).
	// Exact fill matters in both directions: systematic overshoot builds
	// a standing queue that hides the base RTT from the switch's rtt_b
	// min-filter forever, while flooring to whole packets wastes up to
	// one MSS per flow per RTT, which with few flows parks utilization
	// far below rho0. A window below one MSS degenerates to one small
	// packet per RMA — and with the switch delay arbiter active, such
	// RMAs arrive bumped to one MSS and paced (§4.6).
	mss := int64(netsim.MSS)
	target := max(s.cwnd, mss) // never below one packet (arbiter-disabled fallback)
	for s.SndNxt < s.Budget {
		rem := s.Budget - s.SndNxt
		seg := min(mss, rem)
		room := target - s.Flight()
		if room <= 0 {
			break
		}
		// The round mark goes on a full-size segment: switches measure
		// rtt_b only between >=1500B marked frames (§4.4), so marking a
		// window's sub-MSS tail chunk would starve that estimator — and
		// because exact fill re-sends whatever size each ACK freed,
		// odd-sized segments perpetuate, so waiting for a naturally
		// full-size slot can starve the mark forever. A marked segment
		// therefore always ships whole, tolerating a sub-MSS transient
		// overshoot that also realigns the segment ring; unmarked
		// segments fill the window exactly. Message tails and sub-MSS
		// windows mark whatever they can send.
		rm := s.markNext && (seg == mss || rem == seg || s.cwnd < mss)
		if !rm && room < seg {
			seg = room
		}
		if seg < mss && rem > seg {
			// Window-limited sub-MSS segment. Allow at most one in flight
			// (Nagle-style): every odd-sized segment, once ACKed, frees an
			// odd-sized amount of window that would be re-sent at the same
			// odd size, so unbounded small segments fragment the window
			// into a storm of tiny packets whose header overhead consumes
			// a large share of the link. Waiting one ACK lets room grow
			// back to a full segment.
			if s.tailSeq >= 0 && s.SndUna <= s.tailSeq {
				break
			}
			s.tailSeq = s.SndNxt
		}
		s.SendNew(s.Segment(s.SndNxt, seg, s.roundMark(rm)))
	}
	if s.Flight() > 0 {
		s.ArmIfIdle()
	}
}

func (s *Sender) onRTO() {
	if s.awaiting {
		s.CountTimeout()
		s.sendProbe()
		return
	}
	if !s.Timeout() {
		return
	}
	s.tailSeq = -1
	s.markNext = true // re-mark so switches re-count us
	s.GoBackN()
	s.trySend()
	s.ArmRTO()
}

// Deliver processes SYNACKs and (RMA-)ACKs.
func (s *Sender) Deliver(pkt *netsim.Packet) {
	if s.Done() {
		return
	}
	if pkt.Flags&netsim.FlagSYN != 0 && pkt.Flags&netsim.FlagACK != 0 {
		if s.Connected(pkt) {
			s.trackMinRTT(pkt)
			s.sendProbe()
		}
		return
	}
	if pkt.Flags&netsim.FlagACK == 0 {
		return
	}
	s.lastAckAt = s.Cfg.Sim.Now()
	if pkt.Flags&netsim.FlagRMA != 0 {
		s.RMAs++
		if pkt.Window != s.cwnd {
			// The switch-stamped window moved; TFC has no ssthresh.
			s.cwnd = pkt.Window
			s.ProbeCwnd(s.cwnd, 0)
		}
		s.markNext = true
		if s.awaiting {
			// Window acquired: enter the data phase.
			s.awaiting = false
			s.Backoff = 0
			s.StopRTO()
			s.FinishIfClosed() // an empty flow closed during the handshake
			if s.Done() {
				return
			}
		}
	}
	if !s.Established() || s.awaiting {
		return
	}
	switch newly, dup := s.Ack(pkt); {
	case newly > 0:
		s.trackMinRTT(pkt)
		s.Rearm(s.Flight() > 0)
		s.trySend()
		s.Drained()
	case dup && s.Dupacks == 3:
		// TFC has no loss-driven window to cut; dup-ACK-triggered
		// retransmission simply repairs the (rare) hole.
		s.FastRetransmit(s.roundMark(s.markNext))
	}
	s.trySend()
}
