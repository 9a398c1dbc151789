// Package telemetry is the simulation-native observability layer: a
// typed metrics registry (counters, gauges, fixed-bucket histograms)
// sampled on a virtual-time cadence, a bounded event recorder that
// exports Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, and the runtime observatory on top (causal packet
// spans, invariant watchdogs, a flight recorder and a live HTTP
// endpoint; see observatory.go).
//
// Everything is driven by the simulator's virtual clock — no wall time
// anywhere but the endpoint's monitor ticker (server.go, marked for
// tfcvet's simtime check), which only reads atomics — so telemetry
// output is a pure function of the trial seed and merges
// byte-identically at any runner parallelism. Probes are read-only
// observers: they never mutate simulation state and never draw from the
// simulation's random source, so attaching telemetry or the observatory
// changes no experiment result.
//
// The layer has two halves:
//
//   - a Collector owns the per-run output files and mints one Trial per
//     experiment trial (keyed; keys order the merged output);
//   - a Trial owns one simulator's registry + recorder and is the
//     netsim.Probe the instrumented packages (netsim, core, transport,
//     credit, dctcp, bfc) emit their records to: it keeps its own metrics
//     and trace spans from them and, when an Observatory is attached to
//     its collector, drives the observatory's parts from the same record
//     (see probes.go). A nil *Trial disables everything at zero cost.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Options configures a telemetry Collector.
type Options struct {
	// TracePath, if non-empty, is where WriteFiles writes the merged
	// Chrome trace-event JSON.
	TracePath string
	// MetricsPath, if non-empty, is where WriteFiles writes the merged
	// metrics snapshot JSON.
	MetricsPath string
	// RingCap bounds the per-trial event recorder; when full, the
	// retained set is the top RingCap events under the recorder's
	// canonical order — a pure function of the pushed multiset, so the
	// trace does not depend on the order probes push in — and the rest are
	// counted as dropped (default 65536).
	RingCap int
}

// sampleEvery is the virtual-time gauge sampling cadence.
const sampleEvery = sim.Millisecond

func (o *Options) fill() {
	if o.RingCap <= 0 {
		o.RingCap = 1 << 16
	}
}

// Collector owns the telemetry of one experiment run. Trial() is safe to
// call from concurrent runner workers; each Trial is then used only from
// its own trial goroutine. A nil *Collector mints nil *Trials, which
// disable all instrumentation.
type Collector struct {
	opts   Options
	mu     sync.Mutex
	trials map[string]*Trial
	obs    *Observatory // set by Observatory.Attach
}

// NewCollector creates a collector with the given options.
func NewCollector(opts Options) *Collector {
	opts.fill()
	return &Collector{opts: opts, trials: make(map[string]*Trial)}
}

// Trial mints the telemetry sink for one trial. key must be unique for
// the run and deterministic (derive it from the trial index and grid
// parameters, never from timing): keys are the merge order of the
// exported files. Duplicate keys panic — two trials sharing a sink would
// race and corrupt the output.
func (c *Collector) Trial(key string) *Trial {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.trials[key]; dup {
		panic("telemetry: duplicate trial key " + key)
	}
	t := newTrial(key, c.opts, c.obs)
	c.trials[key] = t
	return t
}

// sorted returns the trials in key order (the deterministic merge order).
func (c *Collector) sorted() []*Trial {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.trials))
	for k := range c.trials {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Trial, len(keys))
	for i, k := range keys {
		out[i] = c.trials[k]
	}
	return out
}

// Trial is the telemetry sink of one simulation trial: a metrics
// registry, an event recorder, and the netsim.Probe every instrumented
// package of the trial emits to. A trial belongs to one sequential
// simulation and is used from its goroutine only (InstrumentNetwork
// refuses a partitioned network), so it holds no lock; what the
// observatory's endpoint reads from other goroutines is atomic, or, for
// the flight ring, locked. All methods are nil-safe; a nil *Trial is the
// disabled state.
type Trial struct {
	key  string
	opts Options
	sim  *sim.Simulator
	reg  registry
	rec  recorder

	flushed bool

	flowLabels [len(flowPrefix)]map[netsim.FlowID]string
	// labels and qdepth are indexed by Port.Ordinal(). labels are filled
	// once by InstrumentNetwork and read-only afterwards.
	labels []string
	qdepth []*Hist
	// open holds every span that has begun and not yet ended; flows counts
	// the famFlow ones among them.
	open  map[spanKey]*interval
	flows int

	// Metric families, registered at set-up (InstrumentNetwork,
	// InstrumentTransport, DialProbe) so they appear in the export even at
	// zero, except faults, registered by the first fault transition.
	// Unregistered ones stay nil and absorb writes.
	enq, deq, drops, dropB  *Counter
	slots, stamped, delayed *Counter
	rttm                    *Hist
	rtxBytes, rtos, recs    *Counter
	cwnd                    *Hist
	marked, pauses, resumes *Counter
	faults                  *Counter

	// The observatory's parts, set at mint when the collector is attached
	// to an Observatory (zero otherwise). Observe drives the packet spans
	// (spanEvery > 0) and the flight ring, which exists exactly when the
	// watchdogs are armed; tripped and paused are the watchdogs' state.
	o         *Observatory
	run       string
	spanEvery int
	journeys  journeyTable
	flight    *flightRing
	tripped   [numWatchdogs]bool
	paused    map[pauseKey]bool
	// swPorts are the instrumented network's switch ports, snapshotted for
	// the endpoint.
	swPorts []*netsim.Port

	// Read by the endpoint and its monitor goroutine: the engine's
	// progress mailbox (made before the trial is published), whether the
	// trial is done, the monitor's events/sec and the latest snapshot
	// (swapped in whole on the sampling tick). mon is the monitor's own
	// bookkeeping.
	pulse *sim.Pulse
	done  atomic.Bool
	rate  atomic.Uint64
	snap  atomic.Pointer[trialSnapshot]
	mon   monitorState
}

// newTrial mints a trial, with the parts of o's options switched on and
// published to o when o is non-nil.
func newTrial(key string, opts Options, o *Observatory) *Trial {
	t := &Trial{key: key, opts: opts, open: make(map[spanKey]*interval)}
	t.rec.init(opts.RingCap)
	if o == nil {
		return t
	}
	// Everything the endpoint reads exists before the trial is published.
	t.o, t.pulse, t.spanEvery = o, &sim.Pulse{}, o.opts.SpanEvery
	if o.opts.Watchdogs {
		t.flight = newFlightRing(flightCap)
	}
	o.mu.Lock()
	t.run = o.run
	o.trials = append(o.trials, t)
	o.mu.Unlock()
	return t
}

// Bind attaches the trial to its simulator and the observatory's
// progress mailbox to the simulator, and starts the virtual-time gauge
// sampling cadence, which also takes the endpoint's snapshot. One
// trial binds exactly one simulator; a second Bind panics (it would mean
// two trials share a sink). Nil-safe.
func (t *Trial) Bind(s *sim.Simulator) {
	if t == nil || s == nil {
		return
	}
	if t.sim != nil {
		panic("telemetry: trial " + t.key + " bound twice")
	}
	t.sim = s
	serving := t.o != nil && t.o.opts.HTTPAddr != ""
	var tick func()
	tick = func() {
		now := s.Now()
		t.reg.sample(now)
		if serving {
			t.takeSnapshot(now)
		}
		s.After(sampleEvery, tick)
	}
	s.After(sampleEvery, tick)
	if t.pulse != nil {
		s.SetPulse(t.pulse)
	}
}

// now returns the trial's virtual time (0 before Bind).
func (t *Trial) now() sim.Time {
	if t.sim == nil {
		return 0
	}
	return t.sim.Now()
}

// Flush closes all open spans (flows still running, links still down,
// loss models still installed, packet journeys still in flight) at the
// current virtual time and marks the trial done. Sweep calls it when a
// cell returns, export for every trial; idempotent. Nil-safe.
func (t *Trial) Flush() {
	if t == nil || t.flushed {
		return
	}
	t.flushed = true
	now := t.now()
	t.flushJourneys(now)
	t.done.Store(true)
	// Emission order is free: the recorder orders canonically.
	for k, iv := range t.open {
		t.emit(k, iv, now, Arg{"open", 1})
	}
	clear(t.open)
	t.flows = 0
}

// --- registry surface (nil-safe wrappers) ---

// Counter returns the named counter, creating it on first use.
// Returns nil on a nil trial; Counter.Add on a nil counter is a no-op.
func (t *Trial) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.reg.counter(name)
}

// Gauge registers a callback polled every sampleEvery of virtual time.
// fn must be a pure read of simulation state. No-op on a nil trial;
// duplicate names panic.
func (t *Trial) Gauge(name string, fn func() float64) {
	if t == nil {
		return
	}
	t.reg.gauge(name, fn)
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given ascending bucket bounds on first use (later calls may omit
// bounds). Returns nil on a nil trial; Observe on a nil Hist is a no-op.
func (t *Trial) Histogram(name string, bounds ...float64) *Hist {
	if t == nil {
		return nil
	}
	return t.reg.histogram(name, bounds)
}

// --- recorder surface (nil-safe wrappers) ---
//
// Span/InstantAt/CounterEventAt take explicit virtual timestamps (probes
// pass the record's own); Instant stamps the bound simulator's time.

// Span records a completed span [start, end] on the named track.
func (t *Trial) Span(cat, name, track string, start, end sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.record(&event{name: name, cat: cat, ph: 'X', ts: start, dur: end - start, track: track}, args)
}

// InstantAt records a point event at the given virtual time.
func (t *Trial) InstantAt(at sim.Time, cat, name, track string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(&event{name: name, cat: cat, ph: 'i', ts: at, track: track}, args)
}

// CounterEventAt records a counter sample (graphed as a series in
// Perfetto) at the given virtual time.
func (t *Trial) CounterEventAt(at sim.Time, cat, name, track string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(&event{name: name, cat: cat, ph: 'C', ts: at, track: track}, args)
}

// record completes the caller's event with its args and pushes it: the
// event is built once, on the caller's stack, and copied once, into the
// recorder's buffer.
func (t *Trial) record(e *event, args []Arg) {
	e.setArgs(args)
	t.rec.push(e)
}
