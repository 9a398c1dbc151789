// Package tcp implements TCP NewReno over the netsim substrate: slow
// start, congestion avoidance and fast retransmit / fast recovery (RFC
// 6582) as a window policy on top of the shared reliable-delivery core
// (transport.Reliable, which owns sequence/ACK bookkeeping, handshake,
// RFC 6298 timeouts and retransmission). It also contains the optional
// DCTCP window machinery (enabled through Config.DCTCP) so that package
// dctcp can stay a thin layer adding ECN marking at switches.
//
// The implementation is deliberately testbed-era faithful: per-packet ACKs,
// go-back-N on RTO, initial window of 2 segments, and a 200 ms default
// minimum RTO — the ingredients of the incast collapse TFC's evaluation
// measures against.
package tcp

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// Fixed NewReno/DCTCP constants.
const (
	// initCwndSegs is the initial window in segments (testbed-era IW2).
	initCwndSegs = 2
	// dctcpG is DCTCP's EWMA gain for the marked fraction (its
	// recommended g = 1/16).
	dctcpG = 1.0 / 16
)

// DCTCPParams configures DCTCP window reduction (paper [7] of TFC).
type DCTCPParams struct {
	// InitAlpha is the initial marked-fraction estimate (1.0 = conservative).
	InitAlpha float64
}

// Config parameterizes one TCP connection: the protocol-independent
// transport.DialConfig plus NewReno's own knobs.
type Config struct {
	transport.DialConfig

	// DCTCP enables DCTCP behaviour: ECT on data packets, per-window
	// marked-fraction estimation, and proportional cwnd reduction.
	DCTCP *DCTCPParams

	// Pace spreads data transmission at cwnd/SRTT instead of sending
	// ACK-clocked back-to-back bursts. The tiny-buffer TCP baseline
	// (package tinytcp) relies on it: paced traffic is what makes
	// ~10-packet switch buffers sufficient.
	Pace bool
	// CwndCap, when positive, bounds the congestion window (bytes). Used
	// by the tiny-buffer variant to keep standing queues off shallow
	// buffers; 0 leaves the window unbounded.
	CwndCap int64
}

type dctcpState struct {
	alpha       float64
	ackedBytes  int64
	markedBytes int64
	windowEnd   int64
}

// Sender is the sending half of a TCP connection: a NewReno congestion
// window deciding when transport.Reliable's segments may leave.
type Sender struct {
	transport.Reliable

	cwnd     int64 // bytes
	cwndCap  int64 // Config.CwndCap
	ssthresh int64
	inFR     bool
	recover  int64

	// Pacing gate (Config.Pace): the next time a data segment may leave,
	// and the timer that resumes trySend when the gate reopens.
	pace      bool
	paceFree  sim.Time
	paceTimer sim.Timer

	dctcp *dctcpState
	ect   netsim.Flag // FlagECT on data segments when DCTCP is on
}

// NewSender creates (and registers at the local host) the sending side.
func NewSender(cfg Config) *Sender {
	s := &Sender{ssthresh: 1 << 30, cwndCap: cfg.CwndCap, pace: cfg.Pace}
	s.Init(cfg.DialConfig, s.onRTO)
	s.cwnd = int64(initCwndSegs * netsim.MSS)
	if cfg.DCTCP != nil {
		s.dctcp = &dctcpState{alpha: cfg.DCTCP.InitAlpha}
		s.ect = netsim.FlagECT
	}
	cfg.Local.Register(cfg.Flow, s)
	return s
}

// Dial creates a sender and its matching receiver, registering both.
func Dial(cfg Config) (*Sender, *transport.Receiver) {
	return NewSender(cfg), transport.NewReceiver(cfg.Peer, cfg.Local, cfg.Flow)
}

// Cwnd returns the current congestion window in bytes.
func (s *Sender) Cwnd() int64 { return s.cwnd }

// Alpha returns the DCTCP marked-fraction estimate (0 if not DCTCP).
func (s *Sender) Alpha() float64 {
	if s.dctcp == nil {
		return 0
	}
	return s.dctcp.alpha
}

// Send queues n more bytes on the stream.
func (s *Sender) Send(n int64) {
	if s.Queue(n) {
		s.trySend()
	}
}

func (s *Sender) trySend() {
	if !s.Established() {
		return
	}
	for s.SndNxt < s.Budget {
		seg := s.SegLen(s.SndNxt)
		if s.Flight() > 0 && s.Flight()+seg > s.cwnd {
			break
		}
		if s.pace && !s.paceReady(seg) {
			break
		}
		s.SendNew(s.Segment(s.SndNxt, seg, s.ect))
	}
	if s.Flight() > 0 {
		s.ArmIfIdle()
	}
}

// paceReady checks — and on success advances — the pacing gate for one
// segment: data leaves one MSS per SRTT*seg/cwnd instead of in ACK
// bursts. While the gate is closed a timer re-enters trySend when it
// reopens, so pacing never strands queued data.
func (s *Sender) paceReady(seg int64) bool {
	now := s.Cfg.Sim.Now()
	if s.paceFree > now {
		if !s.paceTimer.Active() {
			// The sender is its own event target (RunEvent == trySend), so
			// re-arming the pacing gate allocates nothing.
			s.paceTimer = s.Cfg.Sim.Schedule(s.paceFree, s)
		}
		return false
	}
	if srtt := s.SRTT(); srtt > 0 && s.cwnd > 0 {
		s.paceFree = now + sim.Time(int64(srtt)*seg/s.cwnd)
	}
	return true
}

// RunEvent implements sim.EventTarget: the pacing gate reopened, resume
// sending.
func (s *Sender) RunEvent() { s.trySend() }

// clampCwnd applies the Config.CwndCap bound after any window growth.
func (s *Sender) clampCwnd() {
	if s.cwndCap > 0 && s.cwnd > s.cwndCap {
		s.cwnd = s.cwndCap
	}
}

// probeCwnd reports the current window to the telemetry probe, if any.
func (s *Sender) probeCwnd() { s.ProbeCwnd(s.cwnd, s.ssthresh) }

func (s *Sender) onRTO() {
	if !s.Timeout() {
		return
	}
	mss := int64(netsim.MSS)
	s.ssthresh = max(s.Flight()/2, 2*mss)
	s.cwnd = mss
	if s.inFR {
		s.ProbeRecovery(false)
	}
	s.inFR = false
	s.GoBackN()
	s.probeCwnd()
	s.trySend()
	s.ArmRTO()
}

// Deliver handles an incoming packet (ACK or SYNACK).
func (s *Sender) Deliver(pkt *netsim.Packet) {
	if s.Done() {
		return
	}
	if pkt.Flags&netsim.FlagSYN != 0 && pkt.Flags&netsim.FlagACK != 0 {
		if s.Connected(pkt) {
			s.trySend()
			s.FinishIfClosed()
		}
		return
	}
	if pkt.Flags&netsim.FlagACK == 0 {
		return
	}
	mss := int64(netsim.MSS)
	newly, dup := s.Ack(pkt)
	switch {
	case newly > 0:
		switch {
		case !s.inFR:
			s.growCwnd(newly, pkt.Flags&netsim.FlagECE != 0)
		case pkt.Ack >= s.recover:
			// Full acknowledgment: leave fast recovery.
			s.inFR = false
			s.cwnd = s.ssthresh
			s.clampCwnd()
			s.ProbeRecovery(false)
		default:
			// Partial ACK (RFC 6582): retransmit the next hole,
			// deflate, stay in recovery.
			s.Retransmit(s.ect)
			s.cwnd = max(s.cwnd-newly+mss, mss)
		}
		s.probeCwnd()
		s.Rearm(s.Flight() > 0)
		s.trySend()
		s.Drained()
	case dup && s.inFR:
		s.cwnd += mss // window inflation
		s.clampCwnd()
		s.probeCwnd()
		s.trySend()
	case dup && s.Dupacks == 3:
		s.ssthresh = max(s.Flight()/2, 2*mss)
		s.recover = s.SndNxt
		s.inFR = true
		s.cwnd = s.ssthresh + 3*mss
		s.clampCwnd()
		s.ProbeRecovery(true)
		s.probeCwnd()
		s.FastRetransmit(s.ect)
	}
}

// growCwnd applies slow start / congestion avoidance and, for DCTCP, the
// per-window proportional reduction.
func (s *Sender) growCwnd(newly int64, ece bool) {
	mss := int64(netsim.MSS)
	if s.dctcp != nil {
		d := s.dctcp
		d.ackedBytes += newly
		if ece {
			d.markedBytes += newly
		}
		if s.SndUna >= d.windowEnd {
			if d.ackedBytes > 0 {
				f := float64(d.markedBytes) / float64(d.ackedBytes)
				d.alpha = (1-dctcpG)*d.alpha + dctcpG*f
				if d.markedBytes > 0 {
					s.cwnd = max(int64(float64(s.cwnd)*(1-d.alpha/2)), mss)
					s.ssthresh = s.cwnd
				}
			}
			d.ackedBytes, d.markedBytes = 0, 0
			d.windowEnd = s.SndNxt
			if ece {
				// The window that just ended saw marks; growth pauses.
				return
			}
		}
	}
	if s.cwnd < s.ssthresh {
		s.cwnd += min(newly, mss)
	} else {
		s.cwnd += max(mss*mss/s.cwnd, 1)
	}
	s.clampCwnd()
}
