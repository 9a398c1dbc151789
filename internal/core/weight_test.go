package core

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Weighted allocation (paper §4.1: the token pool may be divided by "any
// allocation policies"): a weight-w flow receives w fair shares.

func TestWeightedAllocationTwoToOne(t *testing.T) {
	r := newRig(2, 256<<10, SwitchConfig{})
	heavy, _ := r.conn(0, 1, func(c *Config) { c.Weight = 2 })
	light, _ := r.conn(1, 2, func(c *Config) { c.Weight = 1 })
	r.s.At(0, func() { heavy.Open(); heavy.Send(1 << 30) })
	r.s.At(0, func() { light.Open(); light.Send(1 << 30) })
	// Skip convergence, then measure shares.
	r.s.RunUntil(100 * sim.Millisecond)
	b1, b2 := heavy.Acked(), light.Acked()
	r.s.RunUntil(300 * sim.Millisecond)
	d1, d2 := heavy.Acked()-b1, light.Acked()-b2
	ratio := float64(d1) / float64(d2)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("weighted share ratio = %.2f, want ~2.0 (got %d vs %d bytes)", ratio, d1, d2)
	}
	// Aggregate still near rho0 capacity, queue still near zero.
	agg := float64(d1+d2) * 8 / 0.2
	if agg < 0.8e9 {
		t.Fatalf("aggregate %.1f Mbps under weighted allocation", agg/1e6)
	}
	if r.bott.Drops != 0 {
		t.Fatal("weighted allocation caused drops")
	}
}

func TestWeightDefaultsToFair(t *testing.T) {
	// Weight 0 (unset) behaves exactly like weight 1.
	r := newRig(2, 256<<10, SwitchConfig{})
	a, _ := r.conn(0, 1) // default weight
	b, _ := r.conn(1, 2, func(c *Config) { c.Weight = 1 })
	r.s.At(0, func() { a.Open(); a.Send(1 << 30) })
	r.s.At(0, func() { b.Open(); b.Send(1 << 30) })
	r.s.RunUntil(100 * sim.Millisecond)
	b1, b2 := a.Acked(), b.Acked()
	r.s.RunUntil(250 * sim.Millisecond)
	d1, d2 := a.Acked()-b1, b.Acked()-b2
	ratio := float64(d1) / float64(d2)
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("default-weight shares unequal: %.2f", ratio)
	}
}

func TestWeightClamping(t *testing.T) {
	if w := (Config{Weight: -5}).weight(); w != 1 {
		t.Fatalf("negative weight clamped to %d, want 1", w)
	}
	if w := (Config{Weight: 1000}).weight(); w != 255 {
		t.Fatalf("huge weight clamped to %d, want 255", w)
	}
}

func TestWeightedManyFlows(t *testing.T) {
	// 1 weight-4 flow among 4 weight-1 flows: it should get ~half the link
	// (4 of 8 shares).
	r := newRig(5, 256<<10, SwitchConfig{})
	heavy, _ := r.conn(0, 1, func(c *Config) { c.Weight = 4 })
	var lights []*Sender
	for i := 1; i < 5; i++ {
		l, _ := r.conn(i, netsim.FlowID(i+1))
		lights = append(lights, l)
		r.s.At(0, func() { l.Open(); l.Send(1 << 30) })
	}
	r.s.At(0, func() { heavy.Open(); heavy.Send(1 << 30) })
	r.s.RunUntil(100 * sim.Millisecond)
	hb := heavy.Acked()
	var lb int64
	for _, l := range lights {
		lb += l.Acked()
	}
	r.s.RunUntil(300 * sim.Millisecond)
	hd := heavy.Acked() - hb
	var ld int64
	for _, l := range lights {
		ld += l.Acked()
	}
	ld -= lb
	share := float64(hd) / float64(hd+ld)
	// Ideal share is 4/8 = 50%, but at this BDP the per-unit share
	// (~700 B) is below one MSS, and the delay arbiter's one-packet floor
	// (§4.6) over-serves the weight-1 flows — weighting compresses when
	// unit shares drop under a packet. Expect clearly-more-than-fair but
	// less than ideal.
	if share < 0.33 || share > 0.62 {
		t.Fatalf("weight-4 flow got %.0f%% of the link, want in [33%%, 62%%]", share*100)
	}
	if share < 1.0/5*1.4 {
		t.Fatalf("weight-4 flow share %.0f%% not clearly above the fair 20%%", share*100)
	}
}
