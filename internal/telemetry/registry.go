package telemetry

import (
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
)

// Counter is a monotonically written int64 metric. A nil *Counter (from
// a nil trial) absorbs writes at the cost of one nil-check.
type Counter struct {
	name string
	v    int64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// gauge is a registered callback polled on the sampling cadence.
type gauge struct {
	name   string
	fn     func() float64
	series stats.TimeSeries
}

// Hist is a registered fixed-bucket histogram. A nil *Hist absorbs
// observations.
type Hist struct {
	name string
	h    *stats.Histogram
}

// Observe counts one observation. Nil-safe.
func (h *Hist) Observe(x float64) {
	if h != nil {
		h.h.Observe(x)
	}
}

// defaultBuckets covers bytes-scale metrics (cwnd, window, queue) from
// one segment to 16 MB in powers of two.
var defaultBuckets = stats.ExpBuckets(1024, 2, 15)

// registry holds a trial's metrics. Creation order is kept in slices so
// that gauge sampling never iterates a map; export sorts by name.
type registry struct {
	counters []*Counter
	gauges   []*gauge
	hists    []*Hist
	cIdx     map[string]int
	gIdx     map[string]int
	hIdx     map[string]int
}

func (r *registry) counter(name string) *Counter {
	if i, ok := r.cIdx[name]; ok {
		return r.counters[i]
	}
	if r.cIdx == nil {
		r.cIdx = make(map[string]int)
	}
	c := &Counter{name: name}
	r.cIdx[name] = len(r.counters)
	r.counters = append(r.counters, c)
	return c
}

func (r *registry) gauge(name string, fn func() float64) {
	if _, dup := r.gIdx[name]; dup {
		panic("telemetry: duplicate gauge " + name)
	}
	if r.gIdx == nil {
		r.gIdx = make(map[string]int)
	}
	r.gIdx[name] = len(r.gauges)
	g := &gauge{name: name, fn: fn}
	// Pre-size the sample buffers: at the default 1ms cadence this covers
	// a quarter-second of simulation before the series ever grows, keeping
	// append-driven reallocation off the sampling path.
	g.series.T = make([]sim.Time, 0, 256)
	g.series.V = make([]float64, 0, 256)
	r.gauges = append(r.gauges, g)
}

func (r *registry) histogram(name string, bounds []float64) *Hist {
	if i, ok := r.hIdx[name]; ok {
		return r.hists[i]
	}
	if r.hIdx == nil {
		r.hIdx = make(map[string]int)
	}
	if len(bounds) == 0 {
		bounds = defaultBuckets
	}
	h := &Hist{name: name, h: stats.NewHistogram(bounds...)}
	r.hIdx[name] = len(r.hists)
	r.hists = append(r.hists, h)
	return h
}

// sample polls every gauge at virtual time now, in registration order.
func (r *registry) sample(now sim.Time) {
	for _, g := range r.gauges {
		g.series.Add(now, g.fn())
	}
}
