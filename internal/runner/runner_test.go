package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderingDeterminism(t *testing.T) {
	// Results must come back in trial order, every trial on the pool's
	// seed, regardless of worker count.
	trial := func(i int, seed int64) (string, error) {
		// Stagger completion so later trials finish first.
		time.Sleep(time.Duration(64-i) * time.Microsecond)
		return fmt.Sprintf("%d:%d", i, seed), nil
	}
	ref, refM, err := Map(context.Background(), &Pool{Parallelism: 1, Seed: 42}, 64, trial)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8, 64} {
		got, gotM, err := Map(context.Background(), &Pool{Parallelism: par, Seed: 42}, 64, trial)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("j=%d: result[%d] = %q, serial %q", par, i, got[i], ref[i])
			}
			if gotM[i].Seed != refM[i].Seed || gotM[i].Index != i {
				t.Fatalf("j=%d: metrics[%d] = %+v, serial %+v", par, i, gotM[i], refM[i])
			}
		}
	}
}

func TestDeriveSeedStable(t *testing.T) {
	// The schedule is pure: same inputs, same seed; distinct trials,
	// distinct seeds (for any sweep size we will ever run).
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		s := DeriveSeed(7, i)
		if s != DeriveSeed(7, i) {
			t.Fatal("DeriveSeed not pure")
		}
		if seen[s] {
			t.Fatalf("seed collision at trial %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
}

func TestPanicCapture(t *testing.T) {
	res, m, err := Map(context.Background(), &Pool{Parallelism: 1, Seed: 1}, 3, func(i int, seed int64) (int, error) {
		if i == 1 {
			panic("boom")
		}
		return i * 10, nil
	})
	if err == nil {
		t.Fatal("want error from panicking trial")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Trial != 1 || !strings.Contains(err.Error(), "boom") || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured faithfully: %+v", pe)
	}
	// The other trials still produced results.
	if res[0] != 0 || res[2] != 20 {
		t.Fatalf("non-panicking trials lost: %v", res)
	}
	if m[1].Err == nil || m[0].Err != nil || m[2].Err != nil {
		t.Fatalf("metrics errs wrong: %+v", m)
	}
}

func TestTrialErrorLowestIndexWins(t *testing.T) {
	_, _, err := Map(context.Background(), &Pool{Parallelism: 4, Seed: 1}, 8,
		func(i int, seed int64) (int, error) {
			if i >= 5 {
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		})
	if err == nil || !strings.Contains(err.Error(), "fail-5") {
		t.Fatalf("want trial 5's error, got %v", err)
	}
}

func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	done := make(chan struct{})
	var res []int
	var m []Metrics
	var err error
	go func() {
		defer close(done)
		res, m, err = Map(ctx, &Pool{Parallelism: 2, Seed: 1}, 100,
			func(i int, seed int64) (int, error) {
				started.Add(1)
				<-release
				return i, nil
			})
	}()
	// Let the two workers pick up trials, then cancel while they block.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// In-flight trials completed; most of the sweep was skipped.
	var ran, skipped int
	for i := range m {
		if m[i].Skipped {
			skipped++
		} else {
			ran++
			if res[i] != i {
				t.Fatalf("in-flight trial %d lost its result", i)
			}
		}
	}
	if ran == 0 || ran > 4 || skipped < 96 {
		t.Fatalf("ran=%d skipped=%d; cancellation did not stop dispatch", ran, skipped)
	}
}

type countedResult struct{ events uint64 }

func (c countedResult) SimEvents() uint64 { return c.events }

func TestMetricsEventsAndWall(t *testing.T) {
	var got []Metrics
	p := &Pool{Parallelism: 1, Seed: 9, OnDone: func(m Metrics) { got = append(got, m) }}
	_, m, err := Map(context.Background(), p, 3, func(i int, seed int64) (countedResult, error) {
		return countedResult{events: uint64(100 + i)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i].Events != uint64(100+i) {
			t.Fatalf("trial %d events = %d", i, m[i].Events)
		}
		if m[i].Wall < 0 {
			t.Fatalf("trial %d wall = %v", i, m[i].Wall)
		}
	}
	if len(got) != 3 {
		t.Fatalf("OnDone fired %d times, want 3", len(got))
	}
}

func TestStress64ConcurrentTrials(t *testing.T) {
	// 64 concurrent trials hammering their own state; run under -race
	// this proves trial isolation (no shared mutable state in the pool).
	type buf struct{ xs []int }
	res, _, err := Map(context.Background(), &Pool{Parallelism: 64, Seed: 3}, 64,
		func(i int, seed int64) (*buf, error) {
			b := &buf{}
			for k := 0; k < 1000; k++ {
				b.xs = append(b.xs, i*1000+k)
			}
			return b, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res {
		if len(b.xs) != 1000 || b.xs[0] != i*1000 {
			t.Fatalf("trial %d corrupted: len=%d first=%d", i, len(b.xs), b.xs[0])
		}
	}
}

func TestNilAndZeroPool(t *testing.T) {
	res, _, err := Map(context.Background(), nil, 4, func(i int, seed int64) (int64, error) {
		return seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != 0 {
			t.Fatalf("nil pool seed[%d] = %d, want 0", i, res[i])
		}
	}
	// Every trial runs with the pool's Seed at any parallelism.
	for _, par := range []int{1, 2, 8} {
		p := &Pool{Parallelism: par, Seed: 7}
		res, m, err := Map(context.Background(), p, 16, func(i int, seed int64) (int64, error) {
			return seed, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i] != p.Seed || m[i].Seed != p.Seed {
				t.Fatalf("j=%d: trial %d seed %d (metrics %d), want %d", par, i, res[i], m[i].Seed, p.Seed)
			}
		}
	}
	if _, _, err := Map(context.Background(), &Pool{}, 0, func(i int, seed int64) (int, error) {
		t.Fatal("trial called for n=0")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}
