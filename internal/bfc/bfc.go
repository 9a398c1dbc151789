// Package bfc implements a Backpressure Flow Control baseline: per-hop,
// per-flow pause/resume signaling in the spirit of BFC (Goyal et al.,
// NSDI 2022). Switch ports track each flow's queue occupancy and send
// XOF (pause) control packets to the flow's source when it crosses a
// small threshold, releasing the pause with XON once the backlog drains.
// Senders run a fixed window with no congestion control of their own —
// the network, not the end host, meters admission.
//
// The reproduction is deliberately simplified relative to the real
// design: the substrate's switches have shared FIFO output queues, not
// per-flow queues, so pausing a flow cannot unblock others behind it in
// the same FIFO (no HoL isolation), and XOF targets the flow's source
// directly rather than hopping upstream one switch at a time. What it
// preserves is the control law — per-flow occupancy thresholds, pause
// timeouts against lost signals, and sub-RTT reaction at the congested
// hop — which is what the head-to-head experiments compare against TFC.
package bfc

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// Fixed sender constants.
const (
	// Window is the fixed send window: a little above the testbed
	// topologies' bandwidth-delay product, so a single unpaused flow can
	// fill a link while the per-flow backpressure stays in charge of
	// sharing.
	Window = 16 << 10
	// PauseTimeout bounds how long a sender stays paused without a
	// refreshed XOF: a lost XON costs at most this long, after which the
	// sender probes and is re-paused if the congestion persists.
	PauseTimeout = 200 * sim.Microsecond
)

// Config parameterizes one BFC connection: the protocol-independent
// transport.DialConfig (its Probe sees the fixed window as Cwnd, plus
// RTO / recovery / retransmit events).
type Config struct {
	transport.DialConfig
}

// Sender is the sending half of a BFC connection: a fixed-window,
// ACK-clocked sender that obeys XOF/XON backpressure from switches.
// Loss recovery is transport.Reliable's (fast retransmit on three
// dupacks, go-back-N RTO) because backpressure prevents congestion drops
// but not wire loss or link failures.
type Sender struct {
	transport.Reliable

	inFR    bool
	recover int64

	// pause is armed while the sender is backpressured, and transmits
	// nothing: an XOF (re)arms it one pause timeout ahead, an XON stops
	// it early, and expiry without either resumes transmission.
	pause *transport.LazyTimer

	// Pauses counts XOF signals received (sender-side stat).
	Pauses int64
}

// NewSender creates (and registers at the local host) the sending side.
func NewSender(cfg Config) *Sender {
	s := &Sender{}
	s.Init(cfg.DialConfig, s.onRTO)
	// Timeout without XON or refresh: probe onward. If the congestion is
	// still there, the first arriving packet triggers a fresh XOF.
	s.pause = transport.NewLazyTimer(cfg.Sim, s.trySend)
	cfg.Local.Register(cfg.Flow, s)
	return s
}

// Dial creates a sender and its matching receiver (the plain cumulative-
// ACK receiver — BFC needs nothing receiver-side), registering both.
func Dial(cfg Config) (*Sender, *transport.Receiver) {
	return NewSender(cfg), transport.NewReceiver(cfg.Peer, cfg.Local, cfg.Flow)
}

// Paused reports whether the sender is currently backpressured.
func (s *Sender) Paused() bool { return s.pause.Armed() }

// Send queues n more bytes on the stream.
func (s *Sender) Send(n int64) {
	if s.Queue(n) {
		s.trySend()
	}
}

func (s *Sender) trySend() {
	if !s.Established() || s.Paused() {
		return
	}
	for s.SndNxt < s.Budget {
		seg := s.SegLen(s.SndNxt)
		if s.Flight() > 0 && s.Flight()+seg > Window {
			break
		}
		s.SendNew(s.Segment(s.SndNxt, seg, 0))
	}
	if s.Flight() > 0 {
		s.ArmIfIdle()
	}
}

func (s *Sender) onRTO() {
	if !s.Timeout() {
		return
	}
	// A pause riding into an RTO is stale information — the XOF refresh
	// chain is clearly broken (blackout, flushed queue) — so the timeout
	// overrides it. Without this a lost XON plus a lost retransmission
	// window could deadlock the flow.
	s.pause.Stop()
	if s.inFR {
		s.ProbeRecovery(false)
	}
	s.inFR = false
	s.GoBackN()
	s.trySend()
	s.ArmRTO()
}

// Deliver handles an incoming packet (XOF/XON, SYNACK, or ACK).
func (s *Sender) Deliver(pkt *netsim.Packet) {
	if s.Done() {
		return
	}
	if pkt.Flags&netsim.FlagXOF != 0 {
		s.Pauses++
		s.pause.Arm(PauseTimeout)
		return
	}
	if pkt.Flags&netsim.FlagXON != 0 {
		if s.Paused() {
			s.pause.Stop()
			s.trySend()
		}
		return
	}
	if pkt.Flags&netsim.FlagSYN != 0 && pkt.Flags&netsim.FlagACK != 0 {
		if s.Connected(pkt) {
			s.ProbeCwnd(Window, Window)
			s.trySend()
			s.FinishIfClosed()
		}
		return
	}
	if pkt.Flags&netsim.FlagACK == 0 {
		return
	}
	switch newly, dup := s.Ack(pkt); {
	case newly > 0:
		if s.inFR {
			if pkt.Ack >= s.recover {
				s.inFR = false
				s.ProbeRecovery(false)
			} else {
				// Partial ACK: retransmit the next hole, stay in recovery.
				s.Retransmit(0)
			}
		}
		s.Rearm(s.Flight() > 0)
		s.trySend()
		s.Drained()
	case dup && !s.inFR && s.Dupacks == 3:
		s.recover = s.SndNxt
		s.inFR = true
		s.ProbeRecovery(true)
		s.FastRetransmit(0)
	}
}
