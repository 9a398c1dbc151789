package stats

import (
	"slices"
	"testing"

	"tfcsim/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	h.Observe(42)
	if h.Count() != 1 || h.Sum() != 42 || h.Mean() != 42 {
		t.Fatalf("count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	// The single observation sits in bucket (10,100].
	if want := []int64{0, 1, 0, 0}; !slices.Equal(h.Counts(), want) {
		t.Fatalf("counts = %v, want %v", h.Counts(), want)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	// A value exactly on a bound counts into that bucket, not the next.
	h.Observe(1)
	h.Observe(2)
	h.Observe(4)
	h.Observe(5) // overflow
	want := []int64{1, 1, 1, 1}
	for i, c := range h.Counts() {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts(), want)
		}
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// Duplicate timestamps are legal in a TimeSeries (two gauge samples can
// land on the same virtual instant when a cadence tick coincides with an
// event-driven sample); After must keep all of them.
func TestTimeSeriesDuplicateTimestamps(t *testing.T) {
	var ts TimeSeries
	ts.Add(sim.Millisecond, 1)
	ts.Add(2*sim.Millisecond, 2)
	ts.Add(2*sim.Millisecond, 3)
	ts.Add(3*sim.Millisecond, 4)
	late := ts.After(2 * sim.Millisecond)
	if late.N() != 3 || late.V[0] != 2 || late.V[1] != 3 {
		t.Fatalf("After with duplicate timestamps: n=%d v=%v", late.N(), late.V)
	}
	if ts.MeanV() != 2.5 || ts.MaxV() != 4 {
		t.Fatalf("series stats: mean=%v max=%v", ts.MeanV(), ts.MaxV())
	}
}

// Percentile edge cases feeding metrics snapshots: empty series and
// all-duplicate values must not divide by zero or interpolate past the
// data.
func TestPercentileDegenerate(t *testing.T) {
	var empty Sample
	if empty.Percentile(99) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	var dup Sample
	for i := 0; i < 5; i++ {
		dup.Add(3)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if dup.Percentile(p) != 3 {
			t.Fatalf("P%v of constant sample = %v, want 3", p, dup.Percentile(p))
		}
	}
}
