package netsim

import "math/rand"

// LossModel decides per-packet wire loss; Port.SetLoss installs one.
// Implementations draw randomness only from r — the port's deterministic
// per-trial stream — so injected loss is a pure function of the trial
// seed.
type LossModel interface {
	Lose(r *rand.Rand) bool
}

// GilbertElliott is the classic two-state Markov loss model, with a good
// state that never loses and a bad (burst) state that always does. Per
// packet the chain transitions (good->bad with pgb, bad->good with pbg)
// and the packet is lost if the chain lands in the bad state. Unlike
// uniform loss, consecutive losses are correlated: the mean burst length
// is 1/pbg packets. It is stateful and must not be shared across ports
// or trials.
type GilbertElliott struct {
	pgb, pbg float64
	bad      bool
}

// NewGilbertElliott derives the transition probabilities from two
// intuitive targets: the long-run mean loss rate and the mean burst
// length in packets (>= 1). The stationary probability of the bad state
// equals meanLoss: pbg = 1/meanBurst, pgb = meanLoss*pbg/(1-meanLoss).
func NewGilbertElliott(meanLoss, meanBurst float64) *GilbertElliott {
	if meanLoss <= 0 || meanLoss >= 1 {
		panic("netsim: meanLoss must be in (0, 1)")
	}
	if meanBurst < 1 {
		panic("netsim: meanBurst must be >= 1 packet")
	}
	pbg := 1 / meanBurst
	return &GilbertElliott{pgb: meanLoss * pbg / (1 - meanLoss), pbg: pbg}
}

// Lose advances the chain one packet — one draw from r — and reports
// whether that packet is lost.
func (g *GilbertElliott) Lose(r *rand.Rand) bool {
	p := g.pgb
	if g.bad {
		p = g.pbg
	}
	if r.Float64() < p {
		g.bad = !g.bad
	}
	return g.bad
}
