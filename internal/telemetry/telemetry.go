// Package telemetry is the simulation-native observability layer: a
// typed metrics registry (counters, gauges, fixed-bucket histograms)
// sampled on a virtual-time cadence, and a bounded event
// recorder that exports Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing.
//
// Everything is driven by the simulator's virtual clock — no wall time
// anywhere — so telemetry output is a pure function of the trial seed
// and merges byte-identically at any runner parallelism. Probes are
// read-only observers: they never mutate simulation state and never
// draw from the simulation's random source, so attaching telemetry
// changes no experiment result.
//
// The layer has two halves:
//
//   - a Collector owns the per-run output files and mints one Trial per
//     experiment trial (keyed; keys order the merged output);
//   - a Trial owns one simulator's registry + recorder and is the
//     netsim.Probe the instrumented packages (netsim, core, transport,
//     credit, dctcp, bfc) emit their records to: it keeps its own metrics
//     and trace spans from them and hands the same record on to the
//     Consumers registered on it (see probes.go). A nil *Trial disables
//     everything at zero cost.
package telemetry

import (
	"sort"
	"sync"

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
	opts     Options
	mu       sync.Mutex
	trials   map[string]*Trial
	observer func(key string, t *Trial) Consumer
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
	t := newTrial(key, c.opts)
	if c.observer != nil {
		t.consumers = append(t.consumers, c.observer(key, t))
	}
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

// Consumer is a peer of the trial's own metrics and trace spans: the
// trial hands it every record it observes, plus three lifecycle calls.
// Observe is held to the netsim.Probe contract (read-only, no scheduling,
// no Rand, on the trial's simulator goroutine); the lifecycle calls run
// in set-up or export context on the trial's own goroutine.
type Consumer interface {
	netsim.Probe
	// Bound fires from Bind with the trial's simulator, before any event
	// runs: the one place a consumer may schedule.
	Bound(s *sim.Simulator)
	// Instrumented fires from InstrumentNetwork once the tap is attached.
	Instrumented(n *netsim.Network)
	// Flush fires once when the trial flushes (its cell returned, or
	// export), with the trial's final virtual time.
	Flush(now sim.Time)
}

// SetObserver installs the function that mints each new trial's consumer
// (the runtime observatory in internal/obs). Call before any trial is
// minted; trials created earlier keep none. mint runs under the
// collector's lock from whichever runner goroutine mints the trial and
// must not call back into the Collector. Nil-safe.
func (c *Collector) SetObserver(mint func(key string, t *Trial) Consumer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.observer = mint
	c.mu.Unlock()
}

// Trial is the telemetry sink of one simulation trial: a metrics
// registry, an event recorder, and the netsim.Probe every instrumented
// package of the trial emits to. A trial belongs to one sequential
// simulation and is used from its goroutine only (InstrumentNetwork
// refuses a partitioned network), so it holds no lock. All methods are
// nil-safe; a nil *Trial is the disabled state.
type Trial struct {
	key  string
	opts Options
	sim  *sim.Simulator
	reg  registry
	rec  recorder

	flushed bool

	// consumers receive every observed record after the trial's own
	// handling (set once at mint).
	consumers []Consumer

	flowLabels map[flowLabelKey]string
	// labels and qdepth are indexed by Port.Ordinal(). labels is filled
	// once by InstrumentNetwork and read-only afterwards.
	labels []string
	qdepth []*Hist
	// open holds every span that has begun and not yet ended; faultNames
	// are the fault windows' interned names (spanKey.id).
	open       map[spanKey]*interval
	faultNames []string

	// Metric families, registered at set-up (InstrumentNetwork,
	// InstrumentTransport, DialProbe, FaultProbe) so they appear in the
	// export even at zero. Unregistered ones stay nil and absorb writes.
	enq, deq, drops, dropB  *Counter
	slots, stamped, delayed *Counter
	rttm                    *Hist
	rtxBytes, rtos, recs    *Counter
	cwnd                    *Hist
	marked, pauses, resumes *Counter
	faults                  *Counter
}

func newTrial(key string, opts Options) *Trial {
	t := &Trial{key: key, opts: opts, open: make(map[spanKey]*interval)}
	t.rec.init(opts.RingCap)
	return t
}

// Bind attaches the trial to its simulator and starts the virtual-time
// gauge sampling cadence. One trial binds exactly one simulator; a
// second Bind panics (it would mean two trials share a sink). Nil-safe.
func (t *Trial) Bind(s *sim.Simulator) {
	if t == nil || s == nil {
		return
	}
	if t.sim != nil {
		panic("telemetry: trial " + t.key + " bound twice")
	}
	t.sim = s
	var tick func()
	tick = func() {
		t.reg.sample(s.Now())
		s.After(sampleEvery, tick)
	}
	s.After(sampleEvery, tick)
	for _, c := range t.consumers {
		c.Bound(s)
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
// faults still active) at the current virtual time and hands that time to
// the consumers. Sweep calls it when a cell returns, export for every
// trial; idempotent. Nil-safe.
func (t *Trial) Flush() {
	if t == nil || t.flushed {
		return
	}
	t.flushed = true
	now := t.now()
	for _, c := range t.consumers {
		c.Flush(now)
	}
	// Emission order is free: the recorder orders canonically.
	for k, iv := range t.open {
		t.emit(k, iv, now, Arg{"open", 1})
	}
	clear(t.open)
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

// Instant records a point event at the bound simulator's current virtual
// time.
func (t *Trial) Instant(cat, name, track string, args ...Arg) {
	if t == nil {
		return
	}
	t.InstantAt(t.now(), cat, name, track, args...)
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

// Warm pre-sizes the recorder to the most it will ever hold — the
// trial's analog of Simulator.Warm and Network.Warm. Benchmarks call it
// after the untimed pre-roll so that buffer growth, the recorder's only
// allocation, stays out of the measured window; the recorder works
// identically without it, growing on demand. Setup context only.
// Nil-safe.
func (t *Trial) Warm() {
	if t == nil {
		return
	}
	t.rec.reserve(compactAt * t.rec.limit)
}
