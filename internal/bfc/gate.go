package bfc

import "tfcsim/internal/sim"

// FlowGate is the per-port, per-flow pause/resume state machine: it tracks
// the flow's occupancy at one output port and decides when to signal XOF
// (pause) upstream and when to release it with XON. It is a pure state
// machine — no timers, no packets — so the switch hook stays a thin
// adapter and the gate itself is directly fuzzable (see FuzzFlowGate).
//
// Invariants (checked by the fuzz target):
//   - occupancy never goes negative;
//   - XOF is only requested when occupancy is at or above the effective
//     pause threshold (Pause, or Resume under port pressure);
//   - XON is only requested while paused, at occupancy ≤ Resume;
//   - two XOF requests are at least RefreshGap apart.
type FlowGate struct {
	// Pause is the occupancy (bytes) at or above which an arriving packet
	// triggers an XOF toward the flow's source.
	Pause int64
	// Resume is the occupancy (bytes) at or below which a draining packet
	// releases the pause with an XON. Must satisfy 0 < Resume <= Pause.
	Resume int64
	// RefreshGap is the minimum spacing between successive XOF signals.
	// It both dedups the burst of in-flight arrivals right after a pause
	// and rate-limits the refresh XOFs that protect against a lost XOF
	// (the sender's pause times out unless refreshed).
	RefreshGap sim.Time

	occ     int64
	paused  bool
	lastXOF sim.Time
	hasXOF  bool
}

// Occ returns the flow's tracked occupancy in bytes.
func (g *FlowGate) Occ() int64 { return g.occ }

// Paused reports whether the gate has an outstanding pause.
func (g *FlowGate) Paused() bool { return g.paused }

// Add records n bytes of this flow arriving at the port at time now.
// pressure marks port-wide buffer pressure (aggregate occupancy high), in
// which case the effective pause threshold drops to Resume so that many
// small flows sharing one buffer still get paused before drop-tail does
// it for them. It returns true when an XOF should be sent to the source.
func (g *FlowGate) Add(n int64, now sim.Time, pressure bool) (xoff bool) {
	g.occ += n
	thresh := g.Pause
	if pressure && g.Resume < thresh {
		thresh = g.Resume
	}
	if g.occ < thresh {
		return false
	}
	if g.hasXOF && now-g.lastXOF < g.RefreshGap {
		// Recently signaled: either the burst right behind the pause or a
		// refresh that would be redundant. The sender's pause timeout is
		// longer than RefreshGap, so suppression cannot strand a pause.
		return false
	}
	g.paused = true
	g.hasXOF = true
	g.lastXOF = now
	return true
}

// Drain records n bytes of this flow leaving the port (clamped at zero,
// so a drain that outruns the counted arrivals never goes negative). It
// returns true when an XON should be sent to the source.
func (g *FlowGate) Drain(n int64) (xon bool) {
	g.occ -= n
	if g.occ < 0 {
		g.occ = 0
	}
	if g.paused && g.occ <= g.Resume {
		g.paused = false
		return true
	}
	return false
}
