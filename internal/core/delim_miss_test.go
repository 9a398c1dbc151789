package core

// Direct test of the delimiter-miss exponential backoff (§4 robustness):
// when the delimiter flow dies mid-slot, the staleness timer re-elects a
// new delimiter at 2^(k+1)·rtt_last with k capped at MaxMissK, and a
// completed slot resets the backoff. This is the machinery the blackout
// experiment leans on — under a link failure every in-flight delimiter is
// lost, and recovery time depends on the backoff staying bounded.

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// when is a test shorthand for the armed deadline of a timer that the
// test has already established is pending.
func when(t *testing.T, tm sim.Timer) sim.Time {
	t.Helper()
	w, ok := tm.When()
	if !ok {
		t.Fatal("timer unexpectedly stale")
	}
	return w
}

func TestUnitDelimiterMissBackoffBoundedAndRecovers(t *testing.T) {
	s := sim.New(1)
	st, p := mkPort(s, SwitchConfig{})
	const rtt = 100 * sim.Microsecond

	// Establish a delimiter with one completed slot so rtt_last = 100us.
	s.At(0, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	s.At(rtt, func() { st.OnEnqueue(rmData(1, netsim.MSS), p) })
	s.RunUntil(rtt + 1)
	if st.Slots != 1 || st.MissK() != 0 {
		t.Fatalf("setup: slots=%d missK=%d", st.Slots, st.MissK())
	}

	// Kill the delimiter (no more RM packets from flow 1) and let the
	// staleness timer fire repeatedly. After each miss, a fresh flow is
	// adopted as the new delimiter but also dies before completing a slot,
	// so missK keeps climbing — the armed interval must double per miss
	// and clamp at rtt << MaxMissK.
	maxK := maxMissK
	for k := 1; k <= maxK+3; k++ {
		if !st.dTimer.Active() {
			t.Fatalf("miss %d: staleness timer not armed", k)
		}
		fireAt := when(t, st.dTimer)
		s.RunUntil(fireAt + 1)
		wantK := k
		if wantK > maxK {
			wantK = maxK
		}
		if st.MissK() != wantK {
			t.Fatalf("miss %d: missK = %d, want %d", k, st.MissK(), wantK)
		}
		if st.hasDelim {
			t.Fatalf("miss %d: stale delimiter not dropped", k)
		}
		// A new RM data packet is elected delimiter immediately.
		adoptAt := s.Now()
		flow := netsim.FlowID(100 + k)
		s.At(adoptAt, func() { st.OnEnqueue(rmData(flow, netsim.MSS), p) })
		s.RunUntil(adoptAt + 1)
		if !st.hasDelim || st.delim != flow {
			t.Fatalf("miss %d: new delimiter not adopted", k)
		}
		shift := uint(wantK + 1)
		if shift > uint(maxK) {
			shift = uint(maxK)
		}
		if got, want := when(t, st.dTimer)-adoptAt, rtt<<shift; got != want {
			t.Fatalf("miss %d: staleness interval %v, want %v (2^%d * rtt_last)",
				k, got, want, shift)
		}
	}
	// The interval never exceeded rtt << MaxMissK — with MaxMissK = 7 and
	// rtt_last = 100us that is 12.8ms, not minutes.
	if got, want := when(t, st.dTimer)-s.Now()+1, rtt<<uint(maxK); got > want {
		t.Fatalf("backoff escaped the clamp: %v > %v", got, want)
	}

	// Recovery: the current delimiter finally completes a slot. The
	// backoff resets and the slot cadence returns to 2*rtt_last.
	endAt := s.Now() + rtt - 1
	lastFlow := netsim.FlowID(100 + maxK + 3)
	s.At(endAt, func() { st.OnEnqueue(rmData(lastFlow, netsim.MSS), p) })
	s.RunUntil(endAt + 1)
	if st.Slots != 2 {
		t.Fatalf("slots = %d after recovery, want 2", st.Slots)
	}
	if st.MissK() != 0 {
		t.Fatalf("missK = %d after a completed slot, want 0", st.MissK())
	}
	if got := when(t, st.dTimer) - endAt; got >= rtt<<2 {
		t.Fatalf("staleness interval %v after recovery, want < %v", got, rtt<<2)
	}
}
