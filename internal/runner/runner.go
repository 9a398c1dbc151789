// Package runner is a worker-pool executor for independent simulation
// trials. Every experiment sweep in this repository is a set of fully
// independent deterministic simulations (each trial owns a private
// sim.Simulator), so they can fan out across cores freely; the only hard
// requirement is that parallel execution must be observationally
// identical to serial execution. The pool guarantees that by
//
//   - running every trial with the pool's one Seed, so seeds do not
//     depend on scheduling order and cells that differ only in
//     configuration (protocol, ablation flag) see the same workload;
//   - returning results indexed by trial, so output ordering does not
//     depend on completion order;
//   - keeping trials share-nothing: the pool passes in a seed and takes
//     back a value, nothing else.
//
// A panicking trial fails that trial with a captured stack instead of
// killing the process, and a cancelled context stops dispatching new
// trials while letting in-flight ones finish.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Pool describes how a batch of trials is executed. The zero value (and a
// nil *Pool) is valid: GOMAXPROCS workers, seed 0. Pools carry no run
// state and may be reused across Map calls.
type Pool struct {
	// Parallelism is the number of concurrent trials; <= 0 means
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// Seed is the run's seed: every trial runs with Seed.
	Seed int64
	// OnDone, if set, is called with each trial's metrics as it
	// completes. Calls are serialized by the pool but arrive in
	// completion order, not trial order; the callback must not block.
	OnDone func(Metrics)
}

func (p *Pool) workers() int {
	if p == nil || p.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Parallelism
}

func (p *Pool) seed() int64 {
	if p == nil {
		return 0
	}
	return p.Seed
}

// DeriveSeed maps (base, trial) to a distinct seed with a splitmix64-style
// finalizer; the result depends only on the inputs.
func DeriveSeed(base int64, trial int) int64 {
	x := uint64(base) + uint64(trial+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Metrics records one trial's execution.
type Metrics struct {
	Index int   // trial index within the batch
	Seed  int64 // seed the trial ran with (the pool's Seed)
	Wall  time.Duration
	// Events is the trial's simulation event count, when the trial's
	// result reports one (see EventCounter).
	Events uint64
	// Err is the trial's failure, if any (a *PanicError for panics).
	Err error
	// Skipped marks trials that were never dispatched because the
	// context was cancelled first.
	Skipped bool
}

// EventCounter is implemented by trial results that can report how many
// simulator events the trial executed; the pool folds it into Metrics.
type EventCounter interface {
	SimEvents() uint64
}

// PanicError wraps a panic raised inside a trial.
type PanicError struct {
	Trial int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("trial %d panicked: %v\n%s", e.Trial, e.Value, e.Stack)
}

// Map runs n independent trials across the pool's workers and returns
// their results in trial order. trial receives the trial's index and the
// pool's Seed; it must not share mutable state with other trials.
//
// If ctx is cancelled, undispatched trials are skipped (marked in their
// Metrics), in-flight trials run to completion, and Map returns ctx.Err().
// Otherwise Map returns the lowest-index trial error, if any; results of
// the successful trials are valid either way.
func Map[T any](ctx context.Context, p *Pool, n int, trial func(i int, seed int64) (T, error)) ([]T, []Metrics, error) {
	results := make([]T, n)
	metrics := make([]Metrics, n)
	seed := p.seed()
	for i := range metrics {
		metrics[i] = Metrics{Index: i, Seed: seed, Skipped: true}
	}
	if n == 0 {
		return results, metrics, ctx.Err()
	}

	workers := p.workers()
	if workers > n {
		workers = n
	}
	var mu sync.Mutex // serializes OnDone
	run := func(i int) {
		m := &metrics[i]
		m.Skipped = false
		start := time.Now() //tfcvet:allow wallclock — Metrics.Wall times the trial's real execution; trial results depend only on the seed
		defer func() {
			if r := recover(); r != nil {
				m.Err = &PanicError{Trial: i, Value: r, Stack: debug.Stack()}
			}
			m.Wall = time.Since(start) //tfcvet:allow wallclock — Metrics.Wall times the trial's real execution; trial results depend only on the seed
			if m.Err == nil {
				if ec, ok := any(results[i]).(EventCounter); ok {
					m.Events = ec.SimEvents()
				}
			}
			if p != nil && p.OnDone != nil {
				mu.Lock()
				p.OnDone(*m)
				mu.Unlock()
			}
		}()
		v, err := trial(i, m.Seed)
		results[i] = v
		m.Err = err
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, metrics, err
	}
	for i := range metrics {
		if metrics[i].Err != nil {
			return results, metrics, fmt.Errorf("runner: trial %d (seed %d): %w", i, metrics[i].Seed, metrics[i].Err)
		}
	}
	return results, metrics, nil
}
