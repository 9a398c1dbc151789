// Package obs is the runtime observatory: live introspection of a
// running simulation, engine self-profiling, causal packet spans, and
// invariant watchdogs — all consumers of the one netsim.Event stream,
// registered beside telemetry's own metrics on each telemetry.Trial, so
// the instrumented packages need no knowledge of it and the hot path pays
// nothing when it is disabled.
//
// Everything obs computes from the simulation is a pure read: spans and
// profiling go to the trial's telemetry recorder/registry (virtual-time
// stamped, canonically ordered), watchdog diagnostics go to stderr and
// flight-recorder dump files. Results, traces, and metrics therefore
// stay byte-identical with the observatory on or off, at any worker
// parallelism. An observed trial is sequential (telemetry refuses a
// partitioned network), so its consumer runs on the trial's simulator
// goroutine and keeps its state unlocked. The only wall-clock machinery
// (the HTTP endpoint and the liveness monitor) reads the lock-free Pulse
// mailbox and atomic snapshots — it never touches simulator state
// directly.
package obs

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// Options configures an Observatory.
type Options struct {
	// HTTPAddr, when non-empty, serves the live introspection endpoint
	// (JSON at /snapshot, auto-refreshing HTML at /) on this address.
	HTTPAddr string
	// SpanEvery samples 1-in-N flows for causal packet spans (0 disables).
	// Sampling is a pure function of (flow ID, SpanSeed), so the sampled
	// set — and the exported trace — is byte-identical at any -j.
	SpanEvery int
	// SpanSeed perturbs the span sampling hash (default 1).
	SpanSeed int64
	// Watchdogs enables the invariant watchdogs.
	Watchdogs bool
	// FlightDir is where watchdog violations write flight-recorder dumps
	// (default "."). Empty string means default; "-" disables dumps.
	FlightDir string
}

const (
	// flightCap bounds the flight recorder's event ring.
	flightCap = 4096
	// zeroQueueBytes is the zero-queueing watchdog's per-TFC-port bound: a
	// TFC-controlled port whose standing queue exceeds it at a slot
	// boundary violates the paper's zero-queueing claim grossly enough to
	// flag (256 KiB, one full testbed buffer).
	zeroQueueBytes = 256 << 10
	// rtoStormBackoff is the RTO-storm watchdog threshold: a sender
	// reaching this exponential-backoff stage has been dead for
	// MinRTO * 2^n and something is wedged.
	rtoStormBackoff = 8
	// sampleEvery is the virtual-time cadence of the endpoint's port/flow
	// snapshot tick (only scheduled when HTTPAddr is set).
	sampleEvery = sim.Millisecond
	// livenessSec is the liveness watchdog's wall-clock stall
	// threshold in seconds (needs HTTPAddr and Watchdogs).
	livenessSec = 30
)

func (o *Options) fill() {
	if o.SpanSeed == 0 {
		o.SpanSeed = 1
	}
	if o.FlightDir == "" {
		o.FlightDir = "."
	}
}

// Observatory is the process-wide observability hub: one per tfcsim
// invocation, attached to each experiment's telemetry collector in turn.
// It holds a trial only while its run is in progress: FinishRun lets go
// of the trial's simulator, network and flight ring, keeping (when the
// endpoint is serving) just the summary row the endpoint renders.
type Observatory struct {
	opts Options

	mu       sync.Mutex
	run      string      // current experiment name
	trials   []*trialObs // trials of unfinished runs
	finished []TrialJSON // endpoint rows of finished trials (only while serving)
	dumps    int         // flight dumps written (names stay unique)

	violations atomic.Uint64

	srv *server
}

// New creates an Observatory with the given options (not yet serving;
// call Start).
func New(opts Options) *Observatory {
	opts.fill()
	return &Observatory{opts: opts}
}

// Violations returns the number of watchdog violations recorded so far.
func (o *Observatory) Violations() uint64 { return o.violations.Load() }

// Start brings up the HTTP endpoint (no-op when HTTPAddr is empty).
func (o *Observatory) Start() error {
	if o == nil || o.opts.HTTPAddr == "" {
		return nil
	}
	srv, err := newServer(o)
	if err != nil {
		return err
	}
	o.srv = srv
	return nil
}

// Stop shuts the HTTP endpoint down. Nil-safe, idempotent.
func (o *Observatory) Stop() {
	if o == nil || o.srv == nil {
		return
	}
	o.srv.stop()
	o.srv = nil
}

// Warm pre-sizes every registered trial's live-journey table for the
// given number of concurrently in-flight sampled packets — the span
// tracer's analog of Simulator.Warm and Network.Warm. Benchmarks call it
// after the untimed pre-roll so table growth (the only allocation the
// tracer ever performs) stays out of the measured window; the tracer
// works identically without it, growing on demand. Setup context only —
// never call from a probe. Nil-safe.
func (o *Observatory) Warm(journeys int) {
	if o == nil {
		return
	}
	for _, to := range o.snapshotTrials() {
		if to.spans != nil {
			to.spans.warm(journeys)
		}
	}
}

// Attach registers a run and makes the observatory mint the consumer of
// every trial the collector creates. Call once per experiment before
// trials are minted. Nil-safe on both sides.
func (o *Observatory) Attach(run string, c *telemetry.Collector) {
	if o == nil || c == nil {
		return
	}
	o.mu.Lock()
	o.run = run
	o.mu.Unlock()
	c.SetObserver(o.observeTrial)
}

// observeTrial mints one trial's consumer, carrying whichever of the span
// tracer, flight ring, watchdogs and endpoint state the options ask for.
func (o *Observatory) observeTrial(key string, t *telemetry.Trial) telemetry.Consumer {
	// The pulse exists before the trial is published: the endpoint reads
	// it from the moment the trial is in o.trials.
	to := &trialObs{o: o, key: key, t: t, pulse: &sim.Pulse{}}
	if o.opts.SpanEvery > 0 {
		to.spans = newSpanTracer(t, o.opts.SpanEvery, o.opts.SpanSeed)
	}
	if o.opts.Watchdogs {
		to.flight = newFlightRing(flightCap)
		to.token = &tokenWatchdog{to: to}
		to.zeroq = &zeroQueueWatchdog{to: to, bound: zeroQueueBytes}
		to.pair = &pairWatchdog{to: to}
		to.rto = &rtoWatchdog{to: to, threshold: rtoStormBackoff}
	}
	if o.opts.HTTPAddr != "" {
		to.flows = make(map[netsim.FlowID]struct{})
	}
	o.mu.Lock()
	to.run = o.run
	o.trials = append(o.trials, to)
	o.mu.Unlock()
	return to
}

// FinishRun marks every trial of the named run as done and lets go of
// them; while the endpoint is serving, each leaves its summary row behind.
// Experiments call it after their last trial completes. Nil-safe.
func (o *Observatory) FinishRun(run string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	live := o.trials[:0]
	for _, to := range o.trials {
		if to.run != run {
			live = append(live, to)
			continue
		}
		to.done.Store(true)
		if o.srv != nil {
			o.finished = append(o.finished, to.summary())
		}
	}
	clear(o.trials[len(live):])
	o.trials = live
}

// violation records a watchdog violation: a structured stderr diagnostic
// plus (when a flight recorder is live) a dump file. Called from probe
// context on trial goroutines and from the liveness monitor.
func (o *Observatory) violation(to *trialObs, kind, detail string) {
	o.violations.Add(1)
	dump := ""
	if to != nil && to.flight != nil && o.opts.FlightDir != "-" {
		o.mu.Lock()
		o.dumps++
		n := o.dumps
		o.mu.Unlock()
		path := fmt.Sprintf("%s/flight-%03d-%s.json", o.opts.FlightDir, n, kind)
		if err := to.flight.dump(path, to.run, to.key, kind, detail, to.t.PortLabel); err != nil {
			dump = " dump-error=" + err.Error()
		} else {
			dump = " dump=" + path
		}
	}
	trial := ""
	if to != nil {
		trial = to.run + "/" + to.key
	}
	fmt.Fprintf(os.Stderr, "obs: WATCHDOG %s trial=%q %s%s\n", kind, trial, detail, dump)
}

// snapshotTrials returns the trials of unfinished runs in registration
// order (stable: runner trial minting is serialized by the collector
// lock).
func (o *Observatory) snapshotTrials() []*trialObs {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*trialObs(nil), o.trials...)
}
