package sim

import "testing"

// BenchmarkTimerChurn measures the schedule→fire cycle that dominates the
// engine: every fired event schedules its successor, the pattern of a
// busy port. Steady state must not allocate (nodes recycle through the
// free list; the self-scheduling chain reuses one closure).
func BenchmarkTimerChurn(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	n := b.N
	var step func()
	step = func() {
		n--
		if n > 0 {
			s.After(1, step)
		}
	}
	s.At(0, step)
	b.ResetTimer()
	s.Run()
}
