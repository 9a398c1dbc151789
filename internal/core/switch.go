// Package core implements TFC (Token Flow Control), the paper's
// contribution: switches convert link capacity into tokens every time slot
// (one delimiter-flow RTT), count effective flows from RM-marked packets,
// assign each flow W = T/E via header rewriting, and — to survive massive
// fan-in — pace sub-MSS windows with a per-port ACK delay arbiter.
package core

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// TFC's fixed switch constants (DESIGN §3b lists each with its source).
const (
	// alpha is the EWMA weight of the historical token value (eq. 8).
	alpha = 7.0 / 8
	// initRTTB is the base-RTT estimate before any measurement (§6.1.1).
	initRTTB = 160 * sim.Microsecond
	// minRTTFrame is the smallest marked frame that measures rtt_b (§4.4:
	// only frames >= 1500 B, so store-and-forward time is comparable
	// across samples).
	minRTTFrame = 1500
	// rhoFloor bounds the measured utilization away from zero.
	rhoFloor = 1.0 / 64
	// maxMissK caps the delimiter-miss exponential backoff (paper: 7).
	maxMissK = 7
	// tClampFactor bounds the adjusted token value to this multiple of
	// the base BDP (robustness guard for near-idle slots).
	tClampFactor = 16
)

// SwitchConfig parameterizes TFC's switch-side behaviour. Zero fields take
// the paper's defaults (§6.1.1): ρ0 = 0.97.
type SwitchConfig struct {
	// Rho0 is the expected link utilization target.
	Rho0 float64

	// Ablation switches (all false = full TFC).
	DisableDelay    bool // §4.6 ACK delay function off
	DisableAdjust   bool // §4.5 token adjustment off
	DisableDecouple bool // §4.4 decoupling off: tokens use rtt_m
}

func (c *SwitchConfig) fillDefaults() {
	if c.Rho0 == 0 {
		c.Rho0 = 0.97
	}
}

// PortState is TFC's per-output-port state: token computation, effective
// flow counting, delimiter tracking, and the ACK delay arbiter. It is the
// netsim.PortHook for its port.
type PortState struct {
	cfg  *SwitchConfig
	s    *sim.Simulator
	port *netsim.Port
	bps  float64 // link rate, bytes per second

	// Token machinery: the control loop's state, and what endSlot
	// measures to feed it.
	slotState
	hasDelim  bool
	delim     netsim.FlowID
	tstart    sim.Time
	slotLarge bool // the RM frame that started the slot was >= minRTTFrame
	e         int
	aCum      int64    // cumulative arrival wire bytes (never reset)
	lastACum  int64    // aCum at the last slot boundary
	lastRhoAt sim.Time // time of the last slot boundary
	lastRTTm  sim.Time
	missK     int
	dTimer    sim.Timer

	// arb is the delay arbiter: a token bucket over the data direction of
	// this port, holding the ACKs it delays.
	arb netsim.Pacer
}

func newPortState(s *sim.Simulator, p *netsim.Port, cfg *SwitchConfig) *PortState {
	st := &PortState{
		cfg:       cfg,
		s:         s,
		port:      p,
		bps:       p.Rate.BytesPerSecond(),
		slotState: slotState{rttb: initRTTB},
		lastRTTm:  initRTTB,
	}
	st.t = st.bps * st.rttb.Seconds() * cfg.Rho0
	st.w = st.t
	mss := st.wireCost(float64(netsim.MSS))
	st.arb.Init(s, st.bps*cfg.Rho0, mss, mss, 0, st.grant)
	return st
}

// Window returns the window (bytes) currently assigned to passing flows.
func (st *PortState) Window() float64 { return st.w }

// Tokens returns the current token value (bytes per slot).
func (st *PortState) Tokens() float64 { return st.t }

// EffectiveFlows returns the count accumulated in the slot in progress.
func (st *PortState) EffectiveFlows() int { return st.e }

// RTTB returns the base (queueing-free) RTT estimate.
func (st *PortState) RTTB() sim.Time { return st.rttb }

// MissK returns the delimiter-miss backoff exponent (0 when slots are
// completing normally; capped at maxMissK).
func (st *PortState) MissK() int { return st.missK }

// OnEnqueue implements netsim.PortHook: the TFC data path (paper Event 1).
func (st *PortState) OnEnqueue(pkt *netsim.Packet, port *netsim.Port) bool {
	if pkt.Flags&netsim.FlagACK != 0 {
		return true // reverse-direction traffic passes untouched
	}
	// Arrival accounting uses wire bytes (frame + preamble/IFG) so that a
	// saturated link measures rho = 1.0 > rho0. That gap is what lets the
	// token adjustment drain a standing queue: with rho pinned at 1, T is
	// pulled to rho0*c*rtt_b every slot until the queue empties, at which
	// point rtt_m finally exposes the true base RTT and rtt_b locks in.
	st.aCum += int64(pkt.WireBytes())
	if pkt.Flags&netsim.FlagFIN != 0 {
		if st.hasDelim && pkt.Flow == st.delim {
			st.dropDelimiter()
		}
		return true
	}
	weight := int(pkt.Weight)
	if weight == 0 {
		weight = 1
	}
	if pkt.Flags&netsim.FlagRM != 0 {
		switch {
		case !st.hasDelim:
			// Any RM packet (SYN, window-acquisition probe, or data) may
			// start the slot structure. Accepting control packets here is
			// essential for cold start: a burst of new flows on an idle
			// port must complete a slot (SYN -> probe) so that the probes
			// are stamped with W = T/E *before* any data flies (§4.6).
			st.adopt(pkt)
		case pkt.Flow == st.delim:
			st.endSlot(pkt)
		default:
			// E accumulates share weights, so W below is the per-unit-
			// weight window and a weight-w flow receives w shares.
			st.e += weight
		}
	}
	// Stamp the window field down to this port's assignment. The stamp is
	// min(W, T/e) where e is the running effective-flow count of the slot
	// in progress: when a surge of new flows arrives mid-slot (e.g. a
	// synchronized fan-in of SYNs followed one RTT later by their
	// window-acquisition probes), later packets already see the tightened
	// allocation instead of waiting a full slot for W to be recomputed.
	// In steady state e reaches E just as the slot ends, so this reduces
	// to the paper's W = T/E.
	w := st.w
	if st.e > 0 {
		if we := st.t / float64(st.e); we < w {
			w = we
		}
	}
	w *= float64(weight)
	if wi := int64(w); pkt.Window > wi {
		if wi < 1 {
			wi = 1
		}
		pkt.Window = wi
		if pr := st.port.Network().Probe; pr != nil {
			pr.Observe(netsim.Event{Kind: netsim.EvStamp, At: st.s.Now(), Port: st.port, Flow: pkt.Flow, A: wi})
		}
	}
	return true
}

// adopt catches a new delimiter flow (paper Init / delimiter replacement).
func (st *PortState) adopt(pkt *netsim.Packet) {
	st.hasDelim = true
	st.delim = pkt.Flow
	st.tstart = st.s.Now()
	st.slotLarge = pkt.FrameBytes() >= minRTTFrame
	st.e = int(pkt.Weight)
	if st.e == 0 {
		st.e = 1
	}
	st.armDelimTimer(st.lastRTTm)
}

// endSlot closes the current time slot on arrival of the delimiter's RM
// data packet: measure the slot, fold it into the control loop
// (slotUpdate), emit it, and start the next slot.
func (st *PortState) endSlot(pkt *netsim.Packet) {
	now := st.s.Now()
	rttm := now - st.tstart
	if rttm <= 0 {
		rttm = sim.Microsecond
	}
	endLarge := pkt.FrameBytes() >= minRTTFrame
	m := slotSample{
		rttm: rttm, full: endLarge && st.slotLarge,
		arrived: float64(st.aCum - st.lastACum), span: (now - st.lastRhoAt).Seconds(),
		e: st.e, queueEmpty: st.port.QueueBytes() == 0,
	}
	st.slotLarge = endLarge
	st.lastACum = st.aCum
	st.lastRhoAt = now
	var rho float64
	st.slotState, rho = slotUpdate(st.cfg, st.bps, st.slotState, m)
	if pr := st.port.Network().Probe; pr != nil {
		pr.Observe(netsim.Event{Kind: netsim.EvSlot, At: now, Port: st.port,
			A: int64(rttm), B: int64(st.e), X: st.t, Y: st.w, Z: rho})
	}
	st.e = int(pkt.Weight)
	if st.e == 0 {
		st.e = 1
	}
	st.tstart = now
	st.lastRTTm = rttm
	st.missK = 0
	st.armDelimTimer(rttm)
}

// slotState is the state TFC's control loop carries from slot to slot.
type slotState struct {
	rttb    sim.Time // base RTT estimate (§4.4)
	t       float64  // token value (bytes)
	w       float64  // window assigned for the next slot (bytes)
	eSmooth float64  // EWMA of per-slot E (quantization damping)
	sumA    float64  // decayed arrival bytes (rho numerator)
	sumT    float64  // decayed seconds (rho denominator)
}

// slotSample is what endSlot measures of one slot.
type slotSample struct {
	rttm       sim.Time // slot duration, > 0
	full       bool     // both delimiting frames were >= minRTTFrame
	arrived    float64  // wire bytes that arrived since the last slot end
	span       float64  // seconds since the last slot end
	e          int      // effective flows counted in the slot
	queueEmpty bool     // the port's queue was empty at the slot end
}

// slotUpdate is TFC's per-slot control law: the rtt_b filter (§4.4, and
// DESIGN §3b item 8's raise), the decayed utilization (item 5), the token
// adjustment (eqs. 7–8) and the window (eq. 5). It folds the sample m into
// the state s of a port of bps bytes per second and returns the new state
// and the slot's utilization. It is pure: no simulator, port or probe.
func slotUpdate(cfg *SwitchConfig, bps float64, s slotState, m slotSample) (slotState, float64) {
	// rtt_b uses only slots delimited by full-size frames on both ends
	// (§4.4): store-and-forward time differs per frame size, so a slot
	// started by a small control frame under-measures the base RTT.
	// All-time minimum: the monotone min is what stabilizes the control
	// loop — any windowed/forgetting variant lets queue-inflated samples
	// raise rtt_b, which raises T, which deepens the queue (positive
	// feedback). The cost is that after a delimiter change to a
	// longer-RTT flow, tokens stay sized for the old minimum; the token
	// adjustment's rho feedback absorbs that (§4.5).
	if m.full && m.rttm < s.rttb {
		s.rttb = m.rttm
	}
	rho := cfg.Rho0 // with DisableAdjust, neutralizes eq. 7
	if !cfg.DisableAdjust {
		// Utilization as an exponentially-decayed ratio of sums over
		// intervals that tile the entire timeline (endSlot's counters are
		// cumulative, never reset at adoption or sync slots). Anything
		// less is biased: slots end exactly when the delimiter's marked
		// packet (the head of its window burst) arrives, and delimiter
		// churn discards idle stretches, so per-slot ratios overstate
		// utilization and starve the work-conserving boost.
		s.sumA = alpha*s.sumA + m.arrived
		s.sumT = alpha*s.sumT + m.span
		rho = max(s.sumA/(bps*s.sumT), rhoFloor)
		// Upward correction: rtt_b is "the minimum measured RTT of the
		// delimiter flow" (§4.4), so after the delimiter changes to a
		// longer-path flow, the inherited minimum undersizes the tokens
		// relative to the new slot duration and flows stall at one packet
		// per round. That regime is detectable — persistent
		// under-utilization together with slots much longer than rtt_b —
		// and crucially is distinguishable from queueing (which always
		// shows rho ~ 1), so the bounded raise below cannot couple rtt_b
		// to the queue.
		if s.rttb < initRTTB && m.queueEmpty && rho < cfg.Rho0-0.03 && m.rttm > s.rttb*5/4 {
			s.rttb = min(s.rttb+s.rttb/16, initRTTB)
		}
	}
	tokRTT := s.rttb
	if cfg.DisableDecouple {
		tokRTT = m.rttm
	}
	bdp := bps * tokRTT.Seconds()
	// Slew-limit the per-slot target: near-idle slots (e.g. during
	// handshakes) measure rho ~ 0 and would otherwise command a massive
	// one-slot boost that bursts the buffer before flows even start.
	target := min(max(bdp*cfg.Rho0/rho, s.t/4), 4*s.t)
	s.t = alpha*s.t + (1-alpha)*target
	s.t = max(min(s.t, bdp*tClampFactor), float64(netsim.MSS))
	// E is an integer count of marked packets, but its true value
	// (eq. 1: sum of t/rtt_f) is fractional; with non-integer RTT ratios
	// the per-slot count alternates (e.g. a flow with 1.5 rounds per slot
	// counts 1, then 2). Dividing raw counts into T makes W swing +-20%
	// every slot, and window-limited flows deliver the *harmonic* mean of
	// a swinging window — strictly less than the mean. A light EWMA
	// recovers the fractional value the paper's formula intends.
	if s.eSmooth == 0 {
		s.eSmooth = float64(m.e)
	} else {
		s.eSmooth = 0.75*s.eSmooth + 0.25*float64(m.e)
	}
	s.w = s.t / s.eSmooth
	return s, rho
}

// armDelimTimer schedules delimiter-staleness detection at
// rtt_last << min(k+1, maxMissK), k being the misses since the last slot.
func (st *PortState) armDelimTimer(rttLast sim.Time) {
	st.dTimer.Stop()
	shift := uint(st.missK + 1)
	if shift > uint(maxMissK) {
		shift = uint(maxMissK)
	}
	st.dTimer = st.s.ScheduleAfter(rttLast<<shift, (*delimMissEvent)(st))
}

// delimMissEvent is the port state itself as the target of its delimiter
// timer, so arming it allocates nothing.
type delimMissEvent PortState

// RunEvent implements sim.EventTarget.
func (e *delimMissEvent) RunEvent() { (*PortState)(e).onDelimMiss() }

func (st *PortState) onDelimMiss() {
	if st.missK < maxMissK {
		st.missK++
	}
	st.hasDelim = false // catch the next RM data packet as the new delimiter
}

func (st *PortState) dropDelimiter() {
	st.hasDelim = false
	st.dTimer.Stop()
}

// --- ACK delay arbiter (paper §4.6, Event 2) ---
//
// The arbiter refills at rho0 of the line rate. Refilling at the full line
// rate would admit exactly as fast as the port drains, so a queue formed by
// any transient burst would persist forever; the rho0 margin drains it,
// mirroring how the token value targets rho0. A release costs one MSS of
// wire bytes, and the bucket holds at most one.

// wireCost converts a window of payload bytes to the wire bytes its
// packets will occupy (headers + preamble/IFG); the arbiter refills at
// line rate in wire bytes, so admissions must be charged likewise or it
// over-admits by the header overhead ratio (~5%) and the queue creeps
// until it overflows.
func (st *PortState) wireCost(payload float64) float64 {
	per := float64(netsim.MSS + netsim.HeaderBytes + netsim.WireOverheadBytes)
	return payload * per / float64(netsim.MSS)
}

// handleRMA implements Event 2 for an RMA ACK whose data direction flows
// through this port. It returns true if the arbiter took the ACK for
// delayed release.
func (st *PortState) handleRMA(pkt *netsim.Packet, out *netsim.Port) bool {
	if pkt.Window >= int64(netsim.MSS) {
		// Large windows pass immediately, consuming their share down to
		// a floor of -max(T, 4 MSS).
		st.arb.Charge(st.wireCost(float64(pkt.Window)))
		if floor := -max(st.t, 4*float64(netsim.MSS)); st.arb.Tokens < floor {
			st.arb.Tokens = floor
		}
		return false
	}
	if st.arb.Take() {
		pkt.Window = int64(netsim.MSS)
		return false
	}
	st.arb.Hold(pkt, out)
	if pr := st.port.Network().Probe; pr != nil {
		pr.Observe(netsim.Event{Kind: netsim.EvHold, At: st.s.Now(), Port: st.port,
			Flow: pkt.Flow, A: int64(st.arb.Len())})
	}
	return true
}

// grant is the arbiter's release hook: a held ACK leaves carrying one MSS.
func (st *PortState) grant(pkt *netsim.Packet) {
	pkt.Window = int64(netsim.MSS)
	if pr := st.port.Network().Probe; pr != nil {
		pr.Observe(netsim.Event{Kind: netsim.EvGrant, At: st.s.Now(), Port: st.port,
			Flow: pkt.Flow, A: int64(st.arb.Len())})
	}
}

// SwitchState binds TFC port state to every port of one switch and
// implements the netsim.Interceptor that routes RMA ACKs through the delay
// arbiter of their data-direction port.
type SwitchState struct {
	cfg    SwitchConfig
	sw     *netsim.Switch
	states []*PortState // by Port.Index()
}

// Attach enables TFC on a switch: every port gets a PortState hook, and
// the switch gets the RMA interceptor. The state runs on the switch's own
// simulator (its shard's, once the network is partitioned). The
// SwitchConfig is copied; the returned SwitchState, also reachable through
// StateOf, allows inspection.
func Attach(sw *netsim.Switch, cfg SwitchConfig) *SwitchState {
	cfg.fillDefaults()
	s := sw.Sim()
	ss := &SwitchState{cfg: cfg, sw: sw, states: make([]*PortState, len(sw.Ports()))}
	for i, p := range sw.Ports() {
		st := newPortState(s, p, &ss.cfg)
		p.Hook = st
		ss.states[i] = st
	}
	sw.Interceptor = ss
	return ss
}

// StateOf returns the TFC state Attach installed on sw, or nil when sw
// does not run TFC.
func StateOf(sw *netsim.Switch) *SwitchState {
	ss, _ := sw.Interceptor.(*SwitchState)
	return ss
}

// PortState returns the TFC state of one of the switch's ports: nil for
// no port, another node's port, or a port wired after Attach.
func (ss *SwitchState) PortState(p *netsim.Port) *PortState {
	if p == nil || p.Owner != ss.sw || p.Index() >= len(ss.states) {
		return nil
	}
	return ss.states[p.Index()]
}

// Intercept implements netsim.Interceptor: RMA ACKs consult the delay
// arbiter of the port their data traverses (the route toward the ACK's
// source, i.e. the data receiver).
func (ss *SwitchState) Intercept(pkt *netsim.Packet, out *netsim.Port, sw *netsim.Switch) bool {
	const rmaAck = netsim.FlagACK | netsim.FlagRMA
	if pkt.Flags&rmaAck != rmaAck || ss.cfg.DisableDelay {
		return false
	}
	st := ss.PortState(sw.PortFor(pkt.Flow, pkt.Src))
	if st == nil {
		return false
	}
	return st.handleRMA(pkt, out)
}
