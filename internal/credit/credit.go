// Package credit implements a receiver-driven, ExpressPass-style credit
// transport as a comparison baseline for TFC. It descends from the
// credit-based flow control lineage the paper discusses in §7 (Kung et
// al.'s ATM credits), transplanted to data centers the way ExpressPass
// (SIGCOMM'17) later did:
//
//   - the receiver paces small credit packets to the sender; the sender
//     may transmit exactly one MSS of data per credit, so data can never
//     congest a link whose credits were admitted;
//   - switches shape the *credit* stream on the reverse path so that the
//     data it triggers cannot exceed the forward capacity — excess
//     credits are simply dropped (dropping a 64-byte credit is cheap,
//     dropping a 1538-byte data frame is not);
//   - each receiver adjusts its credit rate by waste feedback (credits
//     sent vs. data received), probing up when credits are productive
//     and backing off multiplicatively when they are wasted.
//
// Contrast with TFC: credits pace *per-packet* from receivers and spend
// reverse-path bandwidth continuously, while TFC assigns *per-round
// windows* from switches and only paces in the sub-MSS regime.
package credit

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// The receiver's fixed rate-control constants.
const (
	// initRate is the initial per-flow credit rate as a fraction of the
	// receiver NIC rate.
	initRate = 1.0 / 8
	// wasteTarget is the tolerated credit-waste fraction per epoch before
	// multiplicative decrease.
	wasteTarget = 0.1
	// epoch is the feedback period: roughly an RTT scale, and time-based
	// so that recovery from a rate collapse is not itself paced by the
	// collapsed rate.
	epoch = sim.Millisecond
)

// Sender is the data-sending half: it transmits one segment per received
// credit and nothing otherwise (apart from the RTO safety net, which
// re-requests credits). Reliability is transport.Reliable's.
type Sender struct {
	transport.Reliable
}

// NewSender creates (and registers at cfg.Local) the sending half.
func NewSender(cfg transport.DialConfig) *Sender {
	s := &Sender{}
	s.Init(cfg, s.onRTO)
	cfg.Local.Register(cfg.Flow, s)
	return s
}

// Dial creates a sender at cfg.Local and its matching receiver, the
// credit source, at cfg.Peer. NewReceiver rebinds its config to the peer
// host's simulator (the receiver's pacer and epoch timers are
// receiver-side state), so the two endpoints run on their own shards
// once the network is partitioned.
func Dial(cfg transport.DialConfig) (*Sender, *Receiver) {
	return NewSender(cfg), NewReceiver(cfg)
}

// Open announces the flow to the receiver (SYN). There is no handshake
// reply to wait for: the receiver starts its credit stream when data is
// requested.
func (s *Sender) Open() {
	if s.OpenEstablished() {
		s.sendCtl(netsim.FlagSYN)
		s.ArmRTO()
	}
}

// Send queues n more bytes; a credit request tells the receiver to
// (re)start crediting. The request can be lost like anything else, and a
// receiver that never saw it stays silent, so the retransmission timer
// must be running behind it (a drained connection has stopped it).
func (s *Sender) Send(n int64) {
	if s.Queue(n) {
		s.sendCtl(netsim.FlagCRD)
		s.ArmIfIdle()
	}
}

// sendCtl sends a control packet carrying the remaining-bytes hint the
// receiver sizes its credit stream by.
func (s *Sender) sendCtl(fl netsim.Flag) {
	p := s.Segment(s.SndNxt, 0, fl)
	p.Window = s.Budget - s.SndNxt
	s.Cfg.Local.Send(p)
}

// Deliver processes credits (and their piggybacked cumulative ACKs).
func (s *Sender) Deliver(pkt *netsim.Packet) {
	if s.Done() || pkt.Flags&netsim.FlagACK == 0 {
		return
	}
	if newly, _ := s.Ack(pkt); newly > 0 {
		// Everything queued is outstanding, sent or not: the credits for
		// it have been requested.
		s.Rearm(s.SndUna < s.Budget)
		s.Drained()
		if s.Done() {
			return
		}
	}
	if pkt.Flags&netsim.FlagCRD == 0 {
		return // plain ACK: no credit to spend
	}
	if s.SndNxt == s.Budget {
		return // nothing left to send: the credit is wasted
	}
	// Spend the credit on one segment.
	seg := s.SegLen(s.SndNxt)
	p := s.Segment(s.SndNxt, seg, 0)
	p.Window = s.Budget - s.SndNxt - seg // remaining-after hint
	s.SendNew(p)
	s.ArmIfIdle()
}

func (s *Sender) onRTO() {
	if s.Done() || s.SndUna == s.Budget {
		return
	}
	s.CountTimeout()
	// Go-back-N, when anything is in flight, and re-request credits.
	if s.Flight() > 0 {
		s.GoBackN()
	}
	s.sendCtl(netsim.FlagCRD)
	s.ArmRTO()
}
