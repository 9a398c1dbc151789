package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Stop-churn harnesses. Cancelled nodes are reclaimed lazily — only when
// the queue reaches their slot — so far-future cancellations sit in the
// far heap and wheel slots long after their handles died. These tests
// drive that pattern hard and require the engine to fire exactly what the
// reference queue fires, with sane Live/Pending accounting afterwards.

// churnScript is like opScript but keeps a registry of outstanding
// handles so callbacks can Stop timers mid-run (including far-future
// nodes scheduled long before), not just at schedule time.
type churnScript struct {
	rng     *rand.Rand
	e       engine
	log     []firing
	pending []stopper
	nextID  int
	depth   int
}

func (o *churnScript) deadline() Time {
	now := o.e.Now()
	switch o.rng.Intn(8) {
	case 0, 1, 2: // hot fixed delays
		return now + Time(50*(1+o.rng.Intn(3)))
	case 3, 4: // far future: past the horizon, mostly cancelled
		return now + Time(1_000_000*(1+o.rng.Intn(4)))
	case 5: // every other class, boundaries included
		return deadline(o.rng, now)
	default:
		return now
	}
}

func (o *churnScript) schedule() {
	id := o.nextID
	o.nextID++
	depth := o.depth
	t := o.e.schedAt(o.deadline(), NeutralRank, func() {
		o.log = append(o.log, firing{at: o.e.Now(), id: id})
		// Mid-run churn: stop a random outstanding timer...
		if len(o.pending) > 0 && o.rng.Intn(2) == 0 {
			o.pending[o.rng.Intn(len(o.pending))].Stop()
		}
		// ...and sometimes schedule a replacement from inside the loop.
		if depth < 6 && o.rng.Intn(3) == 0 {
			o.depth = depth + 1
			o.schedule()
		}
	})
	o.pending = append(o.pending, t)
	// Immediate churn: a third of timers die right away, far-future ones
	// included.
	if o.rng.Intn(3) == 0 {
		t.Stop()
	}
}

func runChurnScript(e engine, seed int64, count int) []firing {
	o := &churnScript{rng: rand.New(rand.NewSource(seed)), e: e}
	for i := 0; i < count; i++ {
		o.schedule()
	}
	e.RunUntil(500_000) // leaves far-future cancelled nodes queued
	o.log = append(o.log, firing{at: e.Now(), id: -1})
	e.RunUntil(maxTime) // then drains them
	return o.log
}

// TestStopChurnProperty replays random churn scripts against the engine
// and the reference and checks (1) identical fire logs and (2) post-run
// accounting: nothing live or pending remains.
func TestStopChurnProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		count := int(n%256) + 1
		want := runChurnScript(&refQueue{}, seed, count)
		s := New(1)
		got := runChurnScript(simEngine{s}, seed, count)
		if len(want) != len(got) {
			t.Logf("seed %d: reference fired %d, engine fired %d", seed, len(want), len(got))
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				t.Logf("seed %d: firing %d differs: reference %+v engine %+v", seed, i, want[i], got[i])
				return false
			}
		}
		if s.Live() != 0 || s.Pending() != 0 {
			t.Logf("seed %d: Live = %d, Pending = %d after drain", seed, s.Live(), s.Pending())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTimerWheelStop is the Stop-interleaving variant of FuzzTimerWheel:
// fuzzer-chosen churn scripts (mid-run Stops against a handle registry,
// far-future cancellations) must fire exactly what the reference fires.
func FuzzTimerWheelStop(f *testing.F) {
	f.Add(int64(1), uint16(60))
	f.Add(int64(99), uint16(250))
	f.Add(int64(-3), uint16(2))
	f.Fuzz(func(t *testing.T, seed int64, count uint16) {
		n := int(count%512) + 1
		sameLog(t, runChurnScript(&refQueue{}, seed, n), runChurnScript(simEngine{New(1)}, seed, n))
	})
}
