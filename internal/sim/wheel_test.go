package sim

import (
	"math/rand"
	"testing"
)

// The lane fast path must be invisible: any sequence of schedule / stop /
// nested-reschedule operations fires in exactly the (time, seq) order the
// pure-heap engine produces. These harnesses replay one deterministic
// operation script against a lane-enabled and a lane-disabled simulator
// and require identical fire logs.

// firing is one observed event execution.
type firing struct {
	at Time
	id int
}

// opScript is a deterministic schedule/stop program derived from a seed.
// Delays are drawn from a mix of a few hot fixed values (lane residents),
// a wide range (forcing heap fallback past maxLanes), and negative values
// (clamped, heap-only); a fraction of timers are stopped immediately, and
// a fraction of callbacks reschedule from inside the run loop — the case
// where now has advanced and lane monotonicity actually matters.
type opScript struct {
	rng    *rand.Rand
	depth  int
	nextID int
}

func (o *opScript) delay() Time {
	switch o.rng.Intn(10) {
	case 0, 1, 2, 3: // hot fixed delays: at most 4 distinct values
		return Time(100 * (1 + o.rng.Intn(4)))
	case 4, 5, 6: // cold spread: overflows maxLanes, exercises repurposing
		return Time(o.rng.Intn(5000))
	case 7: // zero delay: fires at now, FIFO among equals
		return 0
	default: // negative: clamped to now by the heap path
		return Time(-1 - o.rng.Intn(50))
	}
}

// install schedules count operations on s, appending to log as they fire.
func (o *opScript) install(s *Simulator, count int, log *[]firing) {
	for i := 0; i < count; i++ {
		o.schedule(s, log)
	}
}

func (o *opScript) schedule(s *Simulator, log *[]firing) {
	id := o.nextID
	o.nextID++
	d := o.delay()
	depth := o.depth
	fire := func() {
		*log = append(*log, firing{at: s.Now(), id: id})
		// A third of firings reschedule a child event from inside the
		// loop (like a port chaining its next serialization).
		if depth < 6 && o.rng.Intn(3) == 0 {
			o.depth = depth + 1
			o.schedule(s, log)
		}
	}
	var t Timer
	if o.rng.Intn(4) == 0 {
		// Absolute deadlines always take the heap.
		t = s.At(s.Now()+d, fire)
	} else {
		t = s.After(d, fire)
	}
	// Stop some timers right away; their nodes must be skipped lazily in
	// whichever structure holds them.
	if o.rng.Intn(5) == 0 {
		t.Stop()
	}
}

// runScript executes one seeded script and returns the fire log.
func runScript(seed int64, count int, lanes bool) []firing {
	s := New(1)
	s.disableLanes = !lanes
	var log []firing
	o := &opScript{rng: rand.New(rand.NewSource(seed))}
	o.install(s, count, &log)
	s.Run()
	return log
}

func TestLaneHeapEquivalence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		want := runScript(seed, 200, false)
		got := runScript(seed, 200, true)
		if len(want) != len(got) {
			t.Fatalf("seed %d: heap fired %d events, lanes fired %d", seed, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: firing %d differs: heap %+v, lanes %+v", seed, i, want[i], got[i])
			}
		}
	}
}

// TestLaneOverflowFallsBack drives more distinct fixed delays than lanes
// exist and checks ordering still holds end to end, with the overflow on
// the heap.
func TestLaneOverflowFallsBack(t *testing.T) {
	s := New(1)
	var got []Time
	for d := Time(1); d <= 3*maxLanes; d++ {
		d := d
		s.After(d, func() { got = append(got, d) })
	}
	if len(s.events) == 0 {
		t.Fatalf("expected heap fallback past %d lanes, heap is empty", maxLanes)
	}
	s.Run()
	for i := range got {
		if got[i] != Time(i+1) {
			t.Fatalf("fired out of order: got[%d] = %v", i, got[i])
		}
	}
}

// TestLaneRepurpose drains a lane and checks its slot is handed to a new
// delay instead of forcing the newcomer onto the heap.
func TestLaneRepurpose(t *testing.T) {
	s := New(1)
	for d := Time(1); d <= maxLanes; d++ {
		s.After(d, func() {})
	}
	s.Run() // all lanes drain
	s.After(999, func() {})
	if len(s.events) != 0 {
		t.Fatalf("new delay went to the heap although %d drained lanes exist", maxLanes)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
	s.Run()
}

// TestLaneStopAndHandles checks Timer semantics for lane-resident nodes:
// Stop prevents firing, Active/When report pending state, and handles go
// stale after the fire.
func TestLaneStopAndHandles(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.After(100, func() { fired++ })
	if w, ok := tm.When(); !tm.Active() || !ok || w != 100 {
		t.Fatalf("lane timer not pending: active=%v when=%v,%v", tm.Active(), w, ok)
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false on a pending lane timer")
	}
	if tm.Active() {
		t.Fatal("Active() = true after Stop")
	}
	keep := s.After(100, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stopped lane timer must not fire)", fired)
	}
	if keep.Active() || keep.Stop() {
		t.Fatal("handle still live after its lane event fired")
	}
}

// TestRunUntilTailWithLanes checks the RunUntil contract when the only
// remaining events live in lanes: virtual time still advances to end.
func TestRunUntilTailWithLanes(t *testing.T) {
	s := New(1)
	s.After(10*Millisecond, func() {})
	s.RunUntil(Millisecond)
	if s.Now() != Millisecond {
		t.Fatalf("Now() = %v, want %v (lane event past end must still advance time)", s.Now(), Millisecond)
	}
}

// TestWarmNoAlloc checks that a warmed simulator runs a lane-heavy
// schedule/fire loop without allocating.
func TestWarmNoAlloc(t *testing.T) {
	s := New(1)
	s.Warm(1024, 1024)
	// Two self-rescheduling lane chains plus one absolute-deadline heap
	// chain: the mixed steady state must be allocation-free once warmed.
	var a, b, c eventFunc
	a = func() { s.ScheduleAfter(5, a) }
	b = func() { s.ScheduleAfter(7, b) }
	c = func() { s.Schedule(s.Now()+3, c) }
	s.ScheduleAfter(5, a)
	s.ScheduleAfter(7, b)
	s.Schedule(3, c)
	s.RunUntil(Microsecond) // create lanes, settle steady state
	allocs := testing.AllocsPerRun(10, func() {
		s.RunUntil(s.Now() + 200)
	})
	if allocs != 0 {
		t.Fatalf("warmed run allocated %.1f allocs/run, want 0", allocs)
	}
}

// TestFuncEventNoAlloc pins what lets At/After share the EventTarget-only
// timer node: a func value is pointer-shaped, so wrapping a pre-built
// closure in funcEvent stores it in the interface word as is, and
// scheduling and firing it — lane and heap — allocates nothing.
func TestFuncEventNoAlloc(t *testing.T) {
	s := New(1)
	s.Warm(16, 16)
	fired := 0
	fn := func() { fired++ }
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		s.After(5, fn)
		s.At(s.Now()+3, fn)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("After/At with a pre-built func allocated %.1f allocs/run, want 0", allocs)
	}
	if fired != 2*(runs+1) { // AllocsPerRun adds one warm-up call
		t.Fatalf("fired %d closures, want %d", fired, 2*(runs+1))
	}
}

// FuzzTimerWheel replays fuzzer-chosen operation scripts against both
// engines and requires identical fire logs. The two bytes of corpus seed
// select script seed and length.
func FuzzTimerWheel(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(42), uint16(300))
	f.Add(int64(-7), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, count uint16) {
		n := int(count%1024) + 1
		want := runScript(seed, n, false)
		got := runScript(seed, n, true)
		if len(want) != len(got) {
			t.Fatalf("heap fired %d events, lanes fired %d", len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("firing %d differs: heap %+v, lanes %+v", i, want[i], got[i])
			}
		}
	})
}
