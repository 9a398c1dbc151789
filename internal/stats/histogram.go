package stats

import "sort"

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= x, with an implicit +Inf
// overflow bucket after the last bound. Bounds are fixed at construction
// so that merging and exporting snapshots never depends on insertion
// order, which keeps telemetry output byte-identical across runs.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []int64   // len(bounds)+1; last entry is the +Inf bucket
	n      int64
	sum    float64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// Panics on empty or non-ascending bounds: bucket layout is part of the
// metric's identity and a bad layout is a programming error.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: NewHistogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: NewHistogram bounds must be strictly ascending")
		}
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// ExpBuckets returns n bounds starting at lo, each factor times the
// previous — the usual layout for byte and duration histograms.
func ExpBuckets(lo, factor float64, n int) []float64 {
	if lo <= 0 || factor <= 1 || n < 1 {
		panic("stats: ExpBuckets needs lo > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	x := lo
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// Observe counts one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i]++
	h.n++
	h.sum += x
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counts returns the per-bucket counts including the +Inf overflow
// bucket (shared; do not mutate).
func (h *Histogram) Counts() []int64 { return h.counts }
