package sim

import "testing"

// Regression tests for the Simulator contract bugs fixed alongside the
// sharded engine (ISSUE 8): pre-run Stop was silently discarded, the
// RunUntil tail advance counted cancelled timers as live work, and
// Timer.When conflated a stale handle with a genuine t=0 deadline.

func TestPreRunStopHonored(t *testing.T) {
	// A Stop issued between runs (or before the first run) must make the
	// next Run/RunUntil return immediately without executing anything.
	s := New(1)
	fired := false
	s.At(5, func() { fired = true })
	s.Stop()
	s.RunUntil(100)
	if fired {
		t.Fatal("event fired despite a pre-run Stop")
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %v after a stopped run, want 0", s.Now())
	}
	// The stop request is consumed: the following run proceeds normally.
	s.RunUntil(100)
	if !fired {
		t.Fatal("run after a consumed Stop did not execute")
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
}

func TestPreRunStopFromHook(t *testing.T) {
	// The first run after a mid-run Stop resumes (documented behavior);
	// a second Stop before that resume is then honored.
	s := New(1)
	s.At(1, func() { s.Stop() })
	n := 0
	s.At(2, func() { n++ })
	s.RunUntil(10) // stops at t=1
	if s.Now() != 1 || n != 0 {
		t.Fatalf("mid-run stop: Now=%v n=%d", s.Now(), n)
	}
	s.Stop() // between runs
	s.RunUntil(10)
	if n != 0 {
		t.Fatal("pre-run Stop between runs was discarded")
	}
	s.RunUntil(10)
	if n != 1 {
		t.Fatal("run after consumed Stop did not resume")
	}
}

func TestRunUntilCancelledOnlyTail(t *testing.T) {
	// The tail advance to end must fire only when live (non-cancelled)
	// events remain. A queue holding only dead timers behaves like an
	// empty one: an idle simulation does not invent the passage of time.
	s := New(1)
	s.At(5, func() {})
	tm := s.At(50, func() { t.Fatal("stopped timer fired") })
	tm.Stop()
	s.RunUntil(20)
	if s.Now() != 5 {
		t.Fatalf("cancelled-only tail: Now = %v, want 5 (last executed event)", s.Now())
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d, want 0", s.Live())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (dead node awaits lazy collection)", s.Pending())
	}
	// With a live event past end the advance still happens.
	s.At(50, func() {})
	s.RunUntil(20)
	if s.Now() != 20 {
		t.Fatalf("live-past-end tail: Now = %v, want 20", s.Now())
	}
}

func TestRunUntilCancelledOnlyLaneTail(t *testing.T) {
	// Same contract when the dead timer waits in a wheel slot or in the
	// far heap rather than in the current slot's run.
	for _, d := range []Time{50 * Microsecond, 10 * Millisecond} {
		s := New(1)
		s.After(5, func() {})
		tm := s.After(d, func() { t.Fatal("stopped timer fired") })
		tm.Stop()
		s.RunUntil(20 * Microsecond)
		if s.Now() != 5 {
			t.Fatalf("d=%v: cancelled-only tail: Now = %v, want 5", d, s.Now())
		}
		if s.Pending() != 1 {
			t.Fatalf("d=%v: Pending = %d, want 1 (dead node awaits lazy collection)", d, s.Pending())
		}
	}
}

func TestWhenDistinguishesZeroDeadline(t *testing.T) {
	// A genuine t=0 deadline reports (0, true); after the fire the same
	// handle reports (0, false). Stopping reports false too.
	s := New(1)
	tm := s.At(0, func() {})
	if w, ok := tm.When(); !ok || w != 0 {
		t.Fatalf("armed t=0 timer: When = %v, %v, want 0, true", w, ok)
	}
	s.Run()
	if _, ok := tm.When(); ok {
		t.Fatal("fired handle still reports ok")
	}
	tm = s.At(s.Now()+3, func() {})
	tm.Stop()
	if _, ok := tm.When(); ok {
		t.Fatal("stopped handle still reports ok")
	}
}

func TestLiveCountTracksStops(t *testing.T) {
	s := New(1)
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, s.At(Time(10+i), func() {}))
	}
	if s.Live() != 10 || s.Pending() != 10 {
		t.Fatalf("Live=%d Pending=%d, want 10/10", s.Live(), s.Pending())
	}
	for _, tm := range tms[:4] {
		tm.Stop()
	}
	if s.Live() != 6 || s.Pending() != 10 {
		t.Fatalf("after 4 stops: Live=%d Pending=%d, want 6/10", s.Live(), s.Pending())
	}
	// Double-stop must not double-decrement.
	tms[0].Stop()
	if s.Live() != 6 {
		t.Fatalf("double Stop changed Live to %d", s.Live())
	}
	s.Run()
	if s.Live() != 0 {
		t.Fatalf("Live=%d after drain, want 0", s.Live())
	}
}
