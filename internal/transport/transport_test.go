package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tfcsim/internal/sim"
)

func TestRTOBeforeFirstSample(t *testing.T) {
	e := NewRTTEstimator(10*sim.Millisecond, 0, 0)
	if got := e.RTO(); got != 10*sim.Millisecond {
		t.Errorf("initial RTO = %v, want clamped to minRTO 10ms", got)
	}
	e2 := NewRTTEstimator(sim.Millisecond, 0, 0)
	if got := e2.RTO(); got != DefaultInitRTO {
		t.Errorf("initial RTO = %v, want %v", got, DefaultInitRTO)
	}
}

func TestRTTEstimatorConverges(t *testing.T) {
	e := NewRTTEstimator(0, 0, 0)
	for i := 0; i < 100; i++ {
		e.Observe(100 * sim.Microsecond)
	}
	if e.SRTT() != 100*sim.Microsecond {
		t.Errorf("SRTT = %v, want 100us", e.SRTT())
	}
	// With zero variance the RTO converges toward SRTT (rttvar decays).
	if e.RTO() > 150*sim.Microsecond {
		t.Errorf("RTO = %v, want near SRTT for constant samples", e.RTO())
	}
}

func TestRTOMinMaxClamp(t *testing.T) {
	e := NewRTTEstimator(200*sim.Millisecond, sim.Second, 0)
	e.Observe(100 * sim.Microsecond)
	if got := e.RTO(); got != 200*sim.Millisecond {
		t.Errorf("RTO = %v, want clamped to 200ms", got)
	}
	e.Observe(10 * sim.Second)
	e.Observe(10 * sim.Second)
	if got := e.RTO(); got != sim.Second {
		t.Errorf("RTO = %v, want clamped to 1s max", got)
	}
}

func TestRTTVarianceRaisesRTO(t *testing.T) {
	e := NewRTTEstimator(0, 0, 0)
	e.Observe(100 * sim.Microsecond)
	e.Observe(500 * sim.Microsecond)
	e.Observe(100 * sim.Microsecond)
	if e.RTO() < e.SRTT()+2*100*sim.Microsecond {
		t.Errorf("RTO %v should include variance margin (srtt %v)", e.RTO(), e.SRTT())
	}
}

func TestReassemblyInOrder(t *testing.T) {
	var r Reassembly
	if got := r.Add(0, 100); got != 100 {
		t.Fatalf("Add(0,100) = %d, want 100", got)
	}
	if got := r.Add(100, 50); got != 150 {
		t.Fatalf("Add(100,50) = %d, want 150", got)
	}
	if r.Buffered() != 0 {
		t.Errorf("Buffered = %d, want 0", r.Buffered())
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	var r Reassembly
	if got := r.Add(100, 100); got != 0 {
		t.Fatalf("gap should not advance: got %d", got)
	}
	if r.Buffered() != 100 {
		t.Fatalf("Buffered = %d, want 100", r.Buffered())
	}
	if got := r.Add(0, 100); got != 200 {
		t.Fatalf("filling gap should advance to 200, got %d", got)
	}
}

func TestReassemblyDuplicatesAndOverlap(t *testing.T) {
	var r Reassembly
	r.Add(0, 100)
	if got := r.Add(0, 100); got != 100 {
		t.Fatalf("pure duplicate changed next: %d", got)
	}
	if got := r.Add(50, 100); got != 150 {
		t.Fatalf("overlapping add: next = %d, want 150", got)
	}
	r.Add(300, 50)  // buffered [300,350)
	r.Add(250, 100) // extends to [250,350)
	if got := r.Add(150, 100); got != 350 {
		t.Fatalf("merge across overlap: next = %d, want 350", got)
	}
}

func TestReassemblyZeroLength(t *testing.T) {
	var r Reassembly
	if got := r.Add(10, 0); got != 0 {
		t.Fatalf("zero-length add changed state: %d", got)
	}
}

// Property: delivering a random permutation of MSS segments always yields
// the full stream exactly once, with nothing left buffered.
func TestQuickReassemblyPermutation(t *testing.T) {
	f := func(seed int64, nSeg uint8) bool {
		n := int(nSeg)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(n)
		var r Reassembly
		for _, i := range order {
			r.Add(int64(i)*1460, 1460)
		}
		return r.Next() == int64(n)*1460 && r.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with random (possibly overlapping, duplicated) adds, next is
// monotonic and never exceeds the max byte seen.
func TestQuickReassemblyMonotonic(t *testing.T) {
	f := func(adds []struct {
		Start uint16
		N     uint8
	}) bool {
		var r Reassembly
		var maxEnd, prev int64
		for _, a := range adds {
			end := int64(a.Start) + int64(a.N)
			if end > maxEnd {
				maxEnd = end
			}
			got := r.Add(int64(a.Start), int(a.N))
			if got < prev || got > maxEnd {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIDGen(t *testing.T) {
	var g IDGen
	a, b := g.Next(), g.Next()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("IDGen produced %d, %d", a, b)
	}
}

func TestStatsFCT(t *testing.T) {
	s := Stats{Start: 100, Completed: 350, Done: true}
	if s.FCT() != 250 {
		t.Fatalf("FCT = %v, want 250", s.FCT())
	}
}

func TestRTOTimerFires(t *testing.T) {
	s := sim.New(1)
	fired := 0
	rt := NewLazyTimer(s, func() { fired++ })
	rt.Arm(10 * sim.Millisecond)
	s.RunUntil(20 * sim.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if rt.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestRTOTimerLazyRearm(t *testing.T) {
	s := sim.New(1)
	fired := 0
	var firedAt sim.Time
	rt := NewLazyTimer(s, func() { fired++; firedAt = s.Now() })
	rt.Arm(10 * sim.Millisecond)
	// Re-arm 1000 times over the first 5ms (like per-ACK re-arming).
	for i := 1; i <= 1000; i++ {
		at := sim.Time(i) * 5 * sim.Microsecond
		s.At(at, func() { rt.Arm(10 * sim.Millisecond) })
	}
	s.RunUntil(sim.Second)
	if fired != 1 {
		t.Fatalf("fired %d, want exactly 1", fired)
	}
	// Last arm at 5ms -> deadline 15ms.
	if firedAt != 15*sim.Millisecond {
		t.Fatalf("fired at %v, want 15ms", firedAt)
	}
	// The whole exercise must have used very few underlying timers: the
	// event count is 1000 arms + a handful of timer events.
	if s.Pending() != 0 {
		t.Fatalf("pending events remain: %d", s.Pending())
	}
}

func TestRTOTimerStop(t *testing.T) {
	s := sim.New(1)
	fired := 0
	rt := NewLazyTimer(s, func() { fired++ })
	rt.Arm(10 * sim.Millisecond)
	s.At(5*sim.Millisecond, func() { rt.Stop() })
	s.RunUntil(sim.Second)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	// Re-arm after stop works.
	rt.Arm(10 * sim.Millisecond)
	s.RunUntil(s.Now() + sim.Second)
	if fired != 1 {
		t.Fatalf("re-armed timer fired %d times", fired)
	}
}

func TestRTOTimerArmShorter(t *testing.T) {
	s := sim.New(1)
	var firedAt sim.Time
	rt := NewLazyTimer(s, func() { firedAt = s.Now() })
	rt.Arm(100 * sim.Millisecond)
	s.At(sim.Millisecond, func() { rt.Arm(5 * sim.Millisecond) }) // earlier deadline
	s.RunUntil(sim.Second)
	if firedAt != 6*sim.Millisecond {
		t.Fatalf("fired at %v, want 6ms (shortened deadline)", firedAt)
	}
}
