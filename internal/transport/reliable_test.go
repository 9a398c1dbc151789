package transport

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// windowSender is the smallest policy that can drive a Reliable: a fixed
// window, go-back-N on timeout, fast retransmit on the third duplicate
// ACK. The tests below exercise the shared core through it, so what they
// establish holds under every protocol that embeds the core.
type windowSender struct {
	Reliable
	window int64
}

func (s *windowSender) Send(n int64) {
	if s.Queue(n) {
		s.trySend()
	}
}

func (s *windowSender) trySend() {
	if !s.Established() {
		return
	}
	for s.SndNxt < s.Budget && s.Flight() < s.window {
		s.SendNew(s.Segment(s.SndNxt, s.SegLen(s.SndNxt), 0))
	}
	if s.Flight() > 0 {
		s.ArmIfIdle()
	}
}

func (s *windowSender) onRTO() {
	if s.Timeout() {
		s.GoBackN()
		s.trySend()
		s.ArmRTO()
	}
}

func (s *windowSender) Deliver(pkt *netsim.Packet) {
	if s.Done() {
		return
	}
	if pkt.Flags&netsim.FlagSYN != 0 {
		if s.Connected(pkt) {
			s.trySend()
			s.FinishIfClosed()
		}
		return
	}
	switch newly, dup := s.Ack(pkt); {
	case newly > 0:
		s.Rearm(s.Flight() > 0)
		s.trySend()
		s.Drained()
	case dup && s.Dupacks == 3:
		s.FastRetransmit(0)
	}
}

// harness wires a windowSender to a peer that swallows everything, so a
// test scripts the ACK stream by hand (ack) or leaves the sender talking
// into a blackout.
type harness struct {
	s         *sim.Simulator
	snd       *windowSender
	completed int
}

type swallow struct{}

func (swallow) Deliver(*netsim.Packet) {}

func newHarness(minRTO sim.Time) *harness {
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	h1, h2, sw := net.NewHost("h1"), net.NewHost("h2"), net.NewSwitch("sw")
	link := netsim.LinkConfig{Rate: 100 * netsim.Gbps, Delay: 1}
	net.Connect(h1, sw, link)
	net.Connect(sw, h2, link)
	net.ComputeRoutes()
	h := &harness{s: s, snd: &windowSender{window: 4 * netsim.MSS}}
	h.snd.Init(DialConfig{
		Sim: s, Local: h1, Peer: h2, Flow: 1, MinRTO: minRTO,
		OnComplete: func() { h.completed++ },
	}, h.snd.onRTO)
	h1.Register(1, h.snd)
	h2.Register(1, swallow{})
	return h
}

// ack delivers a crafted ACK to the sender (directly, no network).
func (h *harness) ack(ackNo int64, flags netsim.Flag) {
	h.snd.Deliver(&netsim.Packet{
		Flow: 1, Flags: flags | netsim.FlagACK, Ack: ackNo, SentAt: h.s.Now(),
	})
}

// establish opens the connection and completes the handshake.
func (h *harness) establish() {
	h.s.At(0, h.snd.Open)
	h.s.RunUntil(sim.Microsecond)
	h.ack(0, netsim.FlagSYN)
	h.s.RunUntil(h.s.Now() + sim.Microsecond)
}

// Regression tests for the RTO exponential-backoff overflow: the original
// armRTO computed est.RTO() << backoff and clamped afterwards, so once
// enough consecutive timeouts accumulated the int64 shift wrapped negative
// (or to zero) and slipped past the MaxRTO check, arming a garbage RTO.
// A long link blackout is exactly the path that accumulates that backoff.

func TestArmRTOBackoffCapped(t *testing.T) {
	h := newHarness(0)
	h.establish()
	now := h.s.Now()
	for _, b := range []uint{0, 1, 5, 20, 31, 32, 33, 40, 63, 64, 100} {
		h.snd.Backoff = b
		h.snd.ArmRTO()
		d := h.snd.rto.Deadline() - now
		if d <= 0 {
			t.Fatalf("backoff %d armed a non-positive RTO %v (shift overflow)", b, d)
		}
		if d > MaxRTO {
			t.Fatalf("backoff %d armed RTO %v past MaxRTO %v", b, d, MaxRTO)
		}
	}
	// Below the cap the backoff still doubles per step.
	h.snd.Backoff = 0
	h.snd.ArmRTO()
	d0 := h.snd.rto.Deadline() - now
	h.snd.Backoff = 3
	h.snd.ArmRTO()
	if d3 := h.snd.rto.Deadline() - now; d3 != d0<<3 {
		t.Fatalf("backoff 3 armed %v, want %v (8x the base RTO)", d3, d0<<3)
	}
}

func TestRTOSurvivesLongBlackout(t *testing.T) {
	// Establish, then blackhole every transmission (the swallow endpoint
	// eats them and no ACKs come back) and run long enough for dozens of
	// consecutive timeouts. The sender must keep firing RTOs at a bounded
	// cadence — with the overflow, the timer eventually arms at a wrapped
	// deadline and retransmission stalls or spins. From a 1 ms RTO the
	// backoff doubles to the 60 s cap in 16 steps (65.5 s in all), then
	// fires once a minute: 80 timeouts need a little over an hour.
	h := newHarness(sim.Millisecond)
	h.establish()
	h.snd.Send(1 << 20)
	h.s.RunUntil(h.s.Now() + 66*sim.Second + 64*MaxRTO)
	// Well past the 32/64 shift-overflow thresholds, and not spinning.
	if n := h.snd.Stats().Timeouts; n < 80 || n > 82 {
		t.Fatalf("%d timeouts in the blackout, want 80..82 (stalled or spinning RTO clock)", n)
	}
	if d := h.snd.rto.Deadline() - h.s.Now(); d <= 0 || d > MaxRTO {
		t.Fatalf("pending RTO %v after blackout, want in (0, MaxRTO]", d)
	}
}

// FuzzAckStream drives the shared core with an arbitrary script of
// handshake / send / ack / dup-ack / stale-ack / timeout / close steps and
// checks, after every step, the invariants every transport relies on: the
// stream pointers stay ordered and SndUna never retreats, BytesAcked
// mirrors SndUna, an armed timer is due within (now, now+MaxRTO], data in
// flight always has a timer behind it, and a finished flow is fully
// acknowledged, silent, and reported exactly once.
func FuzzAckStream(f *testing.F) {
	f.Add([]byte{7, 0, 1, 1, 1, 5})                      // handshake, send, acks, close
	f.Add([]byte{0, 5, 7, 4, 4, 9})                      // send and close before the SYN-ACK
	f.Add([]byte{7, 0x18, 2, 2, 2, 2, 1, 3, 4, 1, 5})    // dupacks, stale ack, timeout
	f.Add([]byte{7, 0xf8, 4, 4, 4, 4, 4, 4, 0xf9, 5, 7}) // consecutive timeouts
	f.Fuzz(func(t *testing.T, script []byte) {
		h := newHarness(sim.Millisecond)
		snd := h.snd
		h.s.At(0, snd.Open)
		h.s.RunUntil(sim.Microsecond)
		var maxSent, prevUna int64
		for i, b := range script {
			arg := int64(b >> 3)
			switch b & 7 {
			case 0:
				snd.Send((arg + 1) * 700)
			case 1: // new ACK, up to anything ever sent
				h.ack(min(snd.SndUna+(arg+1)*500, maxSent), 0)
			case 2: // duplicate ACK
				h.ack(snd.SndUna, 0)
			case 3: // stale ACK
				h.ack(max(snd.SndUna-arg*500, 0), 0)
			case 4: // let the retransmission timer fire
				if snd.rto.Armed() {
					h.s.RunUntil(snd.rto.Deadline())
				}
			case 5:
				snd.Close()
			case 6:
				h.s.RunUntil(h.s.Now() + sim.Time(arg)*100*sim.Microsecond)
			case 7: // SYN-ACK (a duplicate once established)
				h.ack(0, netsim.FlagSYN)
			}
			maxSent = max(maxSent, snd.SndNxt)
			now, st := h.s.Now(), snd.Stats()
			if snd.SndUna < 0 || snd.SndUna > snd.SndNxt || snd.SndNxt > snd.Budget {
				t.Fatalf("step %d: pointers out of order: una=%d nxt=%d budget=%d", i, snd.SndUna, snd.SndNxt, snd.Budget)
			}
			if snd.SndUna < prevUna {
				t.Fatalf("step %d: SndUna went backwards: %d -> %d", i, prevUna, snd.SndUna)
			}
			prevUna = snd.SndUna
			if st.BytesAcked != snd.SndUna {
				t.Fatalf("step %d: BytesAcked=%d, SndUna=%d", i, st.BytesAcked, snd.SndUna)
			}
			if d := snd.rto.Deadline() - now; snd.rto.Armed() && (d <= 0 || d > MaxRTO) {
				t.Fatalf("step %d: armed RTO due in %v, want in (0, MaxRTO]", i, d)
			}
			if snd.Flight() > 0 && !snd.rto.Armed() {
				t.Fatalf("step %d: %d bytes in flight and no timer", i, snd.Flight())
			}
			if st.Done != snd.Done() || h.completed > 1 || (h.completed == 1) != st.Done {
				t.Fatalf("step %d: done=%v/%v, OnComplete fired %d times", i, st.Done, snd.Done(), h.completed)
			}
			if st.Done && (snd.SndUna != snd.Budget || snd.rto.Armed()) {
				t.Fatalf("step %d: finished with una=%d budget=%d armed=%v", i, snd.SndUna, snd.Budget, snd.rto.Armed())
			}
		}
	})
}
