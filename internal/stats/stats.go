// Package stats provides the measurement machinery the experiment
// harness uses to regenerate the paper's tables and figures: percentile
// summaries, CDFs, periodic time-series samplers, and plain-text tables.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"tfcsim/internal/sim"
)

// Sample is a collection of float64 observations with percentile queries.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddTime appends a duration observation in microseconds.
func (s *Sample) AddTime(t sim.Time) { s.Add(t.Micros()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the maximum (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs {
		if x < m {
			m = x
		}
	}
	return m
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank interpolation. Empty samples return 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// CDF returns (value, cumulative fraction) pairs at every distinct value.
func (s *Sample) CDF() (xs, fracs []float64) {
	if len(s.xs) == 0 {
		return nil, nil
	}
	s.sort()
	for i, x := range s.xs {
		if i+1 < len(s.xs) && s.xs[i+1] == x {
			continue
		}
		xs = append(xs, x)
		fracs = append(fracs, float64(i+1)/float64(len(s.xs)))
	}
	return xs, fracs
}

// Values returns a copy of the raw observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// TimeSeries is a sequence of (time, value) points.
type TimeSeries struct {
	T []sim.Time
	V []float64
}

// Add appends a point.
func (ts *TimeSeries) Add(t sim.Time, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// N returns the number of points.
func (ts *TimeSeries) N() int { return len(ts.T) }

// MaxV returns the maximum value (0 if empty).
func (ts *TimeSeries) MaxV() float64 {
	var m float64
	for _, v := range ts.V {
		if v > m {
			m = v
		}
	}
	return m
}

// MeanV returns the mean value (0 if empty).
func (ts *TimeSeries) MeanV() float64 {
	if len(ts.V) == 0 {
		return 0
	}
	var sum float64
	for _, v := range ts.V {
		sum += v
	}
	return sum / float64(len(ts.V))
}

// After returns the sub-series with T >= t (shares backing arrays).
func (ts *TimeSeries) After(t sim.Time) *TimeSeries {
	i := sort.Search(len(ts.T), func(i int) bool { return ts.T[i] >= t })
	return &TimeSeries{T: ts.T[i:], V: ts.V[i:]}
}

// Sampler invokes fn every interval and records the result.
type Sampler struct {
	Series TimeSeries
	stop   bool
}

// NewSampler starts sampling fn every interval on s until StopAt (0 = forever).
func NewSampler(s *sim.Simulator, interval sim.Time, fn func() float64) *Sampler {
	sp := &Sampler{}
	var tick func()
	tick = func() {
		if sp.stop {
			return
		}
		sp.Series.Add(s.Now(), fn())
		s.After(interval, tick)
	}
	s.After(interval, tick)
	return sp
}

// Stop ends sampling.
func (sp *Sampler) Stop() { sp.stop = true }

// Table is a simple aligned text table for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Mbps formats a bits/s value as Mbps with one decimal.
func Mbps(bps float64) string { return fmt.Sprintf("%.1f", bps/1e6) }

// F formats a float with the given precision.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
