package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tfcsim/internal/sim"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should return zeros")
	}
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.N() != 3 || s.Mean() != 2 || s.Max() != 3 || s.Min() != 1 {
		t.Fatalf("basics wrong: n=%d mean=%v max=%v min=%v", s.N(), s.Mean(), s.Max(), s.Min())
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 0.02 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, p := range []float64{0, 50, 99.99, 100} {
		if s.Percentile(p) != 7 {
			t.Fatalf("P%v of singleton = %v", p, s.Percentile(p))
		}
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 1, 2, 3, 3, 3} {
		s.Add(v)
	}
	xs, fr := s.CDF()
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("CDF xs = %v", xs)
	}
	want := []float64{2.0 / 6, 3.0 / 6, 1.0}
	for i := range fr {
		if math.Abs(fr[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF fracs = %v, want %v", fr, want)
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2 && v1 >= s.Min() && v2 <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddTime then values sorted matches sort of inputs.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		xs, fr := s.CDF()
		return sort.Float64sAreSorted(xs) && sort.Float64sAreSorted(fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampler(t *testing.T) {
	s := sim.New(1)
	n := 0
	sp := NewSampler(s, sim.Millisecond, func() float64 { n++; return float64(n) })
	s.RunUntil(10 * sim.Millisecond)
	if sp.Series.N() != 10 {
		t.Fatalf("sampled %d points in 10ms at 1ms, want 10", sp.Series.N())
	}
	sp.Stop()
	s.RunUntil(20 * sim.Millisecond)
	if sp.Series.N() != 10 {
		t.Fatal("sampler kept running after Stop")
	}
	if sp.Series.MaxV() != 10 || sp.Series.MeanV() != 5.5 {
		t.Fatalf("series stats wrong: max=%v mean=%v", sp.Series.MaxV(), sp.Series.MeanV())
	}
}

func TestTimeSeriesAfter(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 10; i++ {
		ts.Add(sim.Time(i)*sim.Millisecond, float64(i))
	}
	late := ts.After(5 * sim.Millisecond)
	if late.N() != 5 || late.V[0] != 5 {
		t.Fatalf("After: n=%d first=%v", late.N(), late.V[0])
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "bbbb"}}
	tb.AddRow("xxx", "1")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "xxx") {
		t.Fatalf("table output: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}

func TestFormatters(t *testing.T) {
	if Mbps(941.5e6) != "941.5" {
		t.Fatalf("Mbps: %s", Mbps(941.5e6))
	}
	if F(3.14159, 2) != "3.14" {
		t.Fatalf("F: %s", F(3.14159, 2))
	}
}
