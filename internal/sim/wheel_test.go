package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The queue is checked against refQueue, a sorted slice that is far too
// slow for real runs and small enough to be obviously right. The harnesses
// below replay one deterministic operation script against both and
// require identical fire logs, so every placement the wheel makes — run
// buffer, wheel slot, far heap — must be invisible.

// horizon is how far ahead a deadline can be and still go into a slot.
const horizon = wheelSlots * slotWidth

// stopper is a pending event's cancel handle, Timer's or refEvent's.
type stopper interface{ Stop() bool }

// engine is what the scripts drive: the Simulator or the reference.
type engine interface {
	Now() Time
	schedAt(t Time, rank int32, fn func()) stopper
	RunUntil(end Time)
}

// simEngine drives a Simulator through its public scheduling calls.
type simEngine struct{ *Simulator }

func (s simEngine) schedAt(t Time, rank int32, fn func()) stopper {
	if rank == NeutralRank {
		return s.At(t, fn)
	}
	return s.ScheduleAfterRank(t-s.Now(), funcEvent(fn), rank)
}

// refQueue is the reference: a slice kept sorted by (at, schedAt, rank,
// seq), with RunUntil's documented tail contract.
type refQueue struct {
	now Time
	seq uint64
	q   []*refEvent
}

type refEvent struct {
	at, schedAt Time
	rank        int32
	seq         uint64
	fn          func()
	done        bool // fired or stopped
}

func (e *refEvent) Stop() bool {
	was := !e.done
	e.done = true
	return was
}

func (a *refEvent) less(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (r *refQueue) Now() Time { return r.now }

func (r *refQueue) schedAt(t Time, rank int32, fn func()) stopper {
	e := &refEvent{at: max(t, r.now), schedAt: r.now, rank: rank, seq: r.seq, fn: fn}
	r.seq++
	i := sort.Search(len(r.q), func(i int) bool { return e.less(r.q[i]) })
	r.q = slices.Insert(r.q, i, e)
	return e
}

func (r *refQueue) RunUntil(end Time) {
	for len(r.q) > 0 && r.q[0].at <= end {
		e := r.q[0]
		r.q = r.q[1:]
		if !e.done {
			e.done = true
			r.now = e.at
			e.fn()
		}
	}
	if r.now < end && slices.ContainsFunc(r.q, func(e *refEvent) bool { return !e.done }) {
		r.now = end
	}
}

// firing is one observed event execution; id -1 records Now() after a
// RunUntil bound.
type firing struct {
	at Time
	id int
}

// deadline draws an absolute deadline from classes that stress every
// placement: hot fixed delays, a spread within the horizon, a spread past
// twice the horizon, deadlines exactly on and next to slot boundaries and
// to the horizon's edge, zero delay, and negative delays (clamped to now).
func deadline(rng *rand.Rand, now Time) Time {
	slot := now >> slotBits
	edge := Time(rng.Intn(3) - 1)
	switch rng.Intn(12) {
	case 0, 1, 2, 3:
		return now + Time(100*(1+rng.Intn(4)))
	case 4, 5:
		return now + Time(rng.Intn(5000))
	case 6:
		return now + Time(rng.Int63n(int64(3*horizon)))
	case 7:
		return (slot+1+Time(rng.Intn(8)))<<slotBits + edge
	case 8:
		return (slot+wheelSlots+Time(rng.Intn(3)-1))<<slotBits + edge
	case 9:
		return now
	default:
		return now - 1 - Time(rng.Intn(50))
	}
}

// opScript is a deterministic schedule/stop program derived from a seed:
// a quarter of the events are ranked, a fifth are stopped at once, and a
// third of firings schedule a child from inside the run loop.
type opScript struct {
	rng    *rand.Rand
	e      engine
	log    []firing
	depth  int
	nextID int
}

func (o *opScript) schedule() {
	id := o.nextID
	o.nextID++
	depth := o.depth
	rank := NeutralRank
	if o.rng.Intn(4) == 0 {
		rank = int32(o.rng.Intn(4))
	}
	t := o.e.schedAt(deadline(o.rng, o.e.Now()), rank, func() {
		o.log = append(o.log, firing{at: o.e.Now(), id: id})
		if depth < 6 && o.rng.Intn(3) == 0 {
			o.depth = depth + 1
			o.schedule()
		}
	})
	if o.rng.Intn(5) == 0 {
		t.Stop()
	}
}

// runScript executes one seeded script on e and returns the fire log. The
// run is cut by RunUntil bounds that fall between events, each followed
// by schedules that may land before the next pending event: the wheel's
// current slot is then ahead of now.
func runScript(e engine, seed int64, count int) []firing {
	o := &opScript{rng: rand.New(rand.NewSource(seed)), e: e}
	for i := 0; i < count; i++ {
		o.schedule()
	}
	for i := 0; i < 8; i++ {
		e.RunUntil(e.Now() + Time(o.rng.Int63n(int64(horizon))))
		o.log = append(o.log, firing{at: e.Now(), id: -1})
		for j := 0; j < 3; j++ {
			o.schedule()
		}
	}
	e.RunUntil(maxTime)
	return o.log
}

// sameLog fails t unless the engine fired exactly what the reference did.
func sameLog(t *testing.T, want, got []firing) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("reference logged %d firings, engine %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("firing %d differs: reference %+v, engine %+v", i, want[i], got[i])
		}
	}
}

func TestLaneHeapEquivalence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		want := runScript(&refQueue{}, seed, 200)
		got := runScript(simEngine{New(1)}, seed, 200)
		sameLog(t, want, got)
	}
}

// TestLaneStopAndHandles checks Timer semantics for nodes in a wheel slot
// and in the far heap: Stop prevents firing, Active/When report pending
// state, and handles go stale after the fire.
func TestLaneStopAndHandles(t *testing.T) {
	for _, d := range []Time{100, 3 * horizon} {
		s := New(1)
		fired := 0
		tm := s.After(d, func() { fired++ })
		if w, ok := tm.When(); !tm.Active() || !ok || w != d {
			t.Fatalf("d=%v: timer not pending: active=%v when=%v,%v", d, tm.Active(), w, ok)
		}
		if !tm.Stop() {
			t.Fatalf("d=%v: Stop() = false on a pending timer", d)
		}
		if tm.Active() {
			t.Fatalf("d=%v: Active() = true after Stop", d)
		}
		keep := s.After(d, func() { fired++ })
		s.Run()
		if fired != 1 {
			t.Fatalf("d=%v: fired = %d, want 1 (stopped timer must not fire)", d, fired)
		}
		if keep.Active() || keep.Stop() {
			t.Fatalf("d=%v: handle still live after its event fired", d)
		}
	}
}

// TestRunUntilTailWithLanes checks the RunUntil contract when the only
// remaining event waits in a wheel slot or in the far heap: virtual time
// still advances to end.
func TestRunUntilTailWithLanes(t *testing.T) {
	for _, d := range []Time{100 * Microsecond, 10 * Millisecond} {
		s := New(1)
		s.After(d, func() {})
		s.RunUntil(Microsecond)
		if s.Now() != Microsecond {
			t.Fatalf("d=%v: Now() = %v, want %v (an event past end must still advance time)", d, s.Now(), Microsecond)
		}
	}
}

// TestSettledNoAlloc checks that a simulator whose pools have grown to the
// working set schedules and fires without allocating: self-rescheduling
// chains in the wheel and the run buffer, and bursts that fill one slot
// densely and send a second one past the horizon, whose nodes reach the
// run buffer from the far heap.
func TestSettledNoAlloc(t *testing.T) {
	s := New(1)
	var a, b, c, burst eventFunc
	nop := eventFunc(func() {})
	a = func() { s.ScheduleAfter(5, a) }
	b = func() { s.ScheduleAfter(7*Microsecond, b) }
	c = func() { s.Schedule(s.Now()+3, c) }
	burst = func() {
		for i := 0; i < 40; i++ {
			s.ScheduleAfter(Time(40-i), nop)
			s.ScheduleAfter(2*horizon+Time(40-i), nop)
		}
		s.ScheduleAfter(10*Microsecond, burst)
	}
	s.ScheduleAfter(5, a)
	s.ScheduleAfter(7, b)
	s.Schedule(3, c)
	s.Schedule(0, burst)
	s.RunUntil(3 * horizon) // settle steady state, far nodes included
	far0 := s.dispFar
	allocs := testing.AllocsPerRun(10, func() {
		s.RunUntil(s.Now() + 20*Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("settled run allocated %.1f allocs/run, want 0", allocs)
	}
	if s.dispFar == far0 {
		t.Fatal("no node came from the far heap in the measured runs")
	}
}

// TestFuncEventNoAlloc pins what lets At/After share the EventTarget-only
// timer node: a func value is pointer-shaped, so wrapping a pre-built
// closure in funcEvent stores it in the interface word as is, and
// scheduling and firing it allocates nothing.
func TestFuncEventNoAlloc(t *testing.T) {
	s := New(1)
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

// FuzzTimerWheel replays fuzzer-chosen operation scripts against the
// engine and the reference and requires identical fire logs.
func FuzzTimerWheel(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(42), uint16(300))
	f.Add(int64(-7), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, count uint16) {
		n := int(count%1024) + 1
		sameLog(t, runScript(&refQueue{}, seed, n), runScript(simEngine{New(1)}, seed, n))
	})
}
