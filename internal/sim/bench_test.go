package sim

import (
	"math/rand"
	"testing"
)

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

// queueBench drives a simulator for exactly b.N events after an untimed
// settle that grows its pools to the working set, so the numbers are per
// event of the queue's steady state.
type queueBench struct {
	s    *Simulator
	left int
}

// tick counts one event against the budget and stops the run when spent.
func (q *queueBench) tick() {
	if q.left--; q.left == 0 {
		q.s.Stop()
	}
}

func (q *queueBench) run(b *testing.B, settle Time) {
	q.s.RunUntil(settle)
	q.left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	q.s.Run()
}

// sparseTicker reschedules itself one fixed delay ahead.
type sparseTicker struct {
	q     *queueBench
	delay Time
}

func (t *sparseTicker) RunEvent() {
	t.q.tick()
	t.q.s.ScheduleAfter(t.delay, t)
}

// BenchmarkQueueSparse is the dumbbell's shape: three pending events at
// fixed delays (a frame's serialization, a link's propagation, a pacing
// tick).
func BenchmarkQueueSparse(b *testing.B) {
	q := &queueBench{s: New(1), left: -1}
	for _, d := range []Time{1230, 2 * Microsecond, 10 * Microsecond} {
		q.s.ScheduleAfter(d, &sparseTicker{q: q, delay: d})
	}
	q.run(b, Millisecond)
}

// denseJob reschedules itself 1–100 us ahead and every eighth time re-arms
// a 1 ms timer that is stopped before it fires, as a retransmission timer
// is.
type denseJob struct {
	q     *queueBench
	delay []Time
	n     int
	rto   Timer
}

// nopEvent is the target of timers that are not meant to do anything.
type nopEvent struct{}

func (nopEvent) RunEvent() {}

func (j *denseJob) RunEvent() {
	j.q.tick()
	j.n++
	j.q.s.ScheduleAfter(j.delay[j.n&(len(j.delay)-1)], j)
	if j.n&7 == 0 {
		j.rto.Stop()
		j.rto = j.q.s.ScheduleAfter(Millisecond, nopEvent{})
	}
}

// BenchmarkQueueDense is the fat tree's and web search's shape: about 6 k
// pending events at 1–100 us random delays plus their 1 ms timers.
func BenchmarkQueueDense(b *testing.B) {
	const jobs = 6000
	q := &queueBench{s: New(1), left: -1}
	rng := rand.New(rand.NewSource(1))
	delay := make([]Time, 1<<12)
	for i := range delay {
		delay[i] = Microsecond + Time(rng.Int63n(int64(99*Microsecond)))
	}
	for i := 0; i < jobs; i++ {
		j := &denseJob{q: q, delay: delay, n: i}
		q.s.ScheduleAfter(delay[i&(len(delay)-1)], j)
	}
	q.run(b, 5*Millisecond)
}
