// Package model provides closed-form predictions for TFC's steady state —
// the fixed points derived in DESIGN.md §3b — so that simulations can be
// cross-validated against analysis (and vice versa). All formulas are in
// SI units: bytes, seconds, bits/second.
package model

import (
	"math"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// PayloadEfficiency is the fraction of wire bytes that is application
// payload for mss-sized segments (headers + preamble/IFG excluded).
func PayloadEfficiency(mss int) float64 {
	return float64(mss) / float64(mss+netsim.HeaderBytes+netsim.WireOverheadBytes)
}

// BDP returns the bandwidth-delay product in bytes.
func BDP(rate netsim.Rate, rtt sim.Time) float64 {
	return rate.BytesPerSecond() * rtt.Seconds()
}

// Tokens returns the steady-state token value T = rho0 * c * rtt_b in
// bytes (paper eq. 3 with the eq. 7 adjustment at rho = 1).
func Tokens(rate netsim.Rate, rttb sim.Time, rho0 float64) float64 {
	return rho0 * BDP(rate, rttb)
}

// EffectiveFlows returns E = sum over flows of slot/rtt_f (paper eq. 1).
func EffectiveFlows(slot sim.Time, rtts []sim.Time) float64 {
	var e float64
	for _, r := range rtts {
		if r > 0 {
			e += slot.Seconds() / r.Seconds()
		}
	}
	return e
}

// FairWindow returns W = T/E in bytes (paper eq. 2).
func FairWindow(tokens, effectiveFlows float64) float64 {
	if effectiveFlows <= 0 {
		return tokens
	}
	return tokens / effectiveFlows
}

// WindowLimitedUtilization is the fixed point of the token-adjustment
// loop when all flows are window-limited (no standing queue): combining
// T = rho0*c*rtt_b/rho with rho = T/(c*rtt_m) gives
//
//	u = sqrt(rho0 * rtt_b / rtt_m)
//
// where rtt_m is the average (jitter-inflated) round and rtt_b the
// minimum. This is why TFC's goodput tracks rho0 only as closely as the
// hosts' RTT variance allows (DESIGN.md §3b, paper §4.5).
//
// The formula holds for rtt_m <= 1.25*rtt_b. Beyond that, with an empty
// queue, the switch's upward correction of rtt_b (DESIGN.md §3b item 8)
// raises rtt_b, and the loop settles above this value (core's
// TestSlotUpdateFixedPoint: 0.908 against 0.804 at rtt_m = 1.5*rtt_b).
func WindowLimitedUtilization(rho0 float64, rttb, rttmAvg sim.Time) float64 {
	if rttmAvg <= 0 {
		return 0
	}
	u := math.Sqrt(rho0 * rttb.Seconds() / rttmAvg.Seconds())
	if u > 1 {
		u = 1
	}
	return u
}

// PacedGoodput is the aggregate application goodput when the delay
// arbiter paces admissions (fan-in regime, fair windows < 1 MSS): the
// arbiter admits rho0 of the line rate in wire bytes, each grant carrying
// one MSS of payload.
func PacedGoodput(rate netsim.Rate, rho0 float64, mss int) float64 {
	return rho0 * float64(rate) * PayloadEfficiency(mss)
}

// IncastRoundTime predicts one barrier round of n senders transferring
// block bytes each through a single bottleneck in the paced regime.
func IncastRoundTime(n int, block int64, rate netsim.Rate, rho0 float64, mss int) sim.Time {
	bits := float64(n) * float64(block) * 8
	return sim.Time(bits / PacedGoodput(rate, rho0, mss) * float64(sim.Second))
}

// GrantInterval is the delay arbiter's steady spacing between sub-MSS
// window grants: one MSS of wire bytes at rho0 of line rate.
func GrantInterval(rate netsim.Rate, rho0 float64, mss int) sim.Time {
	wire := float64(mss + netsim.HeaderBytes + netsim.WireOverheadBytes)
	return sim.Time(wire / (rho0 * rate.BytesPerSecond()) * float64(sim.Second))
}

// QueueFromTokens returns the standing queue implied by a token value T
// against the true (queue-free) BDP: max(0, T - BDP). Zero in steady
// state once rtt_b has converged — the paper's zero-queueing claim.
func QueueFromTokens(tokens float64, rate netsim.Rate, rttTrue sim.Time) float64 {
	q := tokens - BDP(rate, rttTrue)
	if q < 0 {
		return 0
	}
	return q
}

// ConvergenceRounds is the number of slots for a fresh flow to obtain its
// proper window: one slot to be counted (SYN), one to fetch the window
// (probe RMA) — the paper's "two RTTs" claim (§1).
const ConvergenceRounds = 2
