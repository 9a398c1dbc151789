package faults

import "math/rand"

// GilbertElliott is the classic two-state Markov loss model: a "good"
// state with loss probability LossGood and a "bad" (burst) state with
// LossBad. Per packet the chain first transitions (good->bad with PGB,
// bad->good with PBG), then draws the loss for the state it landed in.
// Unlike uniform loss, consecutive losses are correlated: the mean burst
// length is 1/PBG packets.
//
// GilbertElliott implements netsim.LossModel. It is stateful and must not
// be shared across ports or trials.
type GilbertElliott struct {
	PGB      float64 // P(good -> bad) per packet
	PBG      float64 // P(bad -> good) per packet
	LossGood float64 // loss probability in the good state
	LossBad  float64 // loss probability in the bad state

	bad bool
}

// NewGilbertElliott derives the transition probabilities from two
// intuitive targets: the long-run mean loss rate and the mean burst
// length in packets (>= 1). The good state is lossless and the bad state
// drops everything, so the stationary probability of the bad state equals
// meanLoss: PBG = 1/meanBurst, PGB = meanLoss*PBG/(1-meanLoss).
func NewGilbertElliott(meanLoss, meanBurst float64) *GilbertElliott {
	if meanLoss <= 0 || meanLoss >= 1 {
		panic("faults: meanLoss must be in (0, 1)")
	}
	if meanBurst < 1 {
		panic("faults: meanBurst must be >= 1 packet")
	}
	pbg := 1 / meanBurst
	return &GilbertElliott{
		PGB:     meanLoss * pbg / (1 - meanLoss),
		PBG:     pbg,
		LossBad: 1,
	}
}

// Lose advances the chain one packet and reports whether that packet is
// lost. All randomness comes from r (the simulation's per-trial source).
func (g *GilbertElliott) Lose(r *rand.Rand) bool {
	if g.bad {
		if r.Float64() < g.PBG {
			g.bad = false
		}
	} else {
		if r.Float64() < g.PGB {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}
