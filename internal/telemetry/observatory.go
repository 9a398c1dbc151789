package telemetry

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tfcsim/internal/sim"
)

// The runtime observatory: live introspection of a running simulation,
// causal packet spans, invariant watchdogs and a flight recorder, all
// driven by the trial's own Observe, Bind, sampling tick,
// InstrumentNetwork and Flush, so the instrumented packages need no
// knowledge of it and the hot path pays nothing when it is disabled.
//
// Everything it computes from the simulation is a pure read: spans go to
// the trial's recorder (virtual-time stamped, canonically ordered),
// watchdog diagnostics go to stderr and flight-recorder dump files.
// Results, traces, and metrics therefore stay byte-identical with the
// observatory on or off, at any worker parallelism. The only wall-clock
// machinery (the HTTP endpoint and the liveness monitor, server.go)
// reads the lock-free Pulse mailbox and atomic snapshots — it never
// touches simulator state directly.

// ObsOptions configures an Observatory.
type ObsOptions struct {
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
	// livenessSec is the liveness watchdog's wall-clock stall
	// threshold in seconds (needs HTTPAddr and Watchdogs).
	livenessSec = 30
)

func (o *ObsOptions) fill() {
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
	opts ObsOptions

	mu       sync.Mutex
	run      string      // current experiment name
	trials   []*Trial    // trials of unfinished runs
	finished []trialJSON // endpoint rows of finished trials (only while serving)
	dumps    int         // flight dumps written (names stay unique)

	violations atomic.Uint64

	srv *server
}

// NewObservatory creates an Observatory with the given options (not yet
// serving; call Start).
func NewObservatory(opts ObsOptions) *Observatory {
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

// Attach registers a run and marks the collector, so every trial it mints
// from then on carries the parts the options switch on. Call once per
// experiment before trials are minted. Nil-safe on both sides.
func (o *Observatory) Attach(run string, c *Collector) {
	if o == nil || c == nil {
		return
	}
	o.mu.Lock()
	o.run = run
	o.mu.Unlock()
	c.mu.Lock()
	c.obs = o
	c.mu.Unlock()
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
	for _, t := range o.trials {
		if t.run != run {
			live = append(live, t)
			continue
		}
		t.done.Store(true)
		if o.srv != nil {
			o.finished = append(o.finished, t.summary())
		}
	}
	clear(o.trials[len(live):])
	o.trials = live
}

// violation records a watchdog violation: a structured stderr diagnostic
// plus (when a flight recorder is live) a dump file. Called from probe
// context on trial goroutines and from the liveness monitor.
func (o *Observatory) violation(t *Trial, kind, detail string) {
	o.violations.Add(1)
	dump := ""
	if t.flight != nil && o.opts.FlightDir != "-" {
		o.mu.Lock()
		o.dumps++
		n := o.dumps
		o.mu.Unlock()
		path := fmt.Sprintf("%s/flight-%03d-%s.json", o.opts.FlightDir, n, kind)
		if err := t.flight.dump(path, t.run, t.key, kind, detail, t.labels); err != nil {
			dump = " dump-error=" + err.Error()
		} else {
			dump = " dump=" + path
		}
	}
	fmt.Fprintf(os.Stderr, "obs: WATCHDOG %s trial=%q %s%s\n", kind, t.run+"/"+t.key, detail, dump)
}

// snapshotTrials returns the trials of unfinished runs in registration
// order (stable: runner trial minting is serialized by the collector
// lock).
func (o *Observatory) snapshotTrials() []*Trial {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Trial(nil), o.trials...)
}

// trialSnapshot is one trial's sampled state, served by the endpoint.
type trialSnapshot struct {
	VirtualNs   int64      `json:"virtual_ns"`
	ActiveFlows int        `json:"active_flows"`
	Ports       []portSnap `json:"ports"`
}

// portSnap is one switch port's sampled queue state.
type portSnap struct {
	Label      string `json:"label"`
	QueueBytes int64  `json:"queue_bytes"`
	QueueLen   int    `json:"queue_len"`
}

// takeSnapshot samples port queues and the trial's open-flow count (a
// flow opens at its first data-direction enqueue at its sender's NIC and
// closes at its FIN) into the endpoint's atomic snapshot slot. It runs
// inside a simulator event, so these reads do not race the engine.
func (t *Trial) takeSnapshot(now sim.Time) {
	s := &trialSnapshot{VirtualNs: int64(now), ActiveFlows: t.flows}
	s.Ports = make([]portSnap, 0, len(t.swPorts))
	for _, p := range t.swPorts {
		s.Ports = append(s.Ports, portSnap{
			Label:      t.portLabel(p),
			QueueBytes: int64(p.QueueBytes()),
			QueueLen:   p.QueueLen(),
		})
	}
	t.snap.Store(s)
}
