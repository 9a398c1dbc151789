package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// A rep is one pass over a workload: every trial's setup (build, routes,
// partition, attach, instrument, dial), run (the event loop over the
// fixed simulated interval) and export (collect, format, write files).
// The three phase times are what the end-to-end metrics are made of.
type rep struct {
	tr  *tracer // nil on the untraced pass
	dir string  // scratch directory for this rep's exported files
	// limits[i] bounds trial i's wall time (10x the same trial of the
	// warm-up rep); a missing entry means unbounded.
	limits []time.Duration

	setup, run, export time.Duration
	runMallocs         uint64
	allocBytes         uint64 // MemStats.TotalAlloc delta over the whole rep
	trials             []*trial
	addedNs            int64       // traced pass: time in tracedOnly measurements (inside the phases)
	claims             int         // paper claims checked (run_all_quick only)
	claimsFailed       int         // claims whose Check returned false
	results            []expResult // per experiment (run_all_quick only)
}

// expResult is what one Experiment.Run reported about itself.
type expResult struct {
	name   string
	wall   time.Duration
	trials time.Duration // sum of its trials' wall times
}

// trial is one simulator instance of a rep and what it did.
type trial struct {
	name  string
	proto string // transport under test ("" when the trial has none)

	events     uint64
	heapDisp   uint64 // queue pops served by the heap
	laneDisp   uint64 // queue pops served by the lanes
	hops       int64  // sum of Port.TxPackets: the scenario-determined work
	drops      int64
	txBytes    int64 // sum of Port.TxFrames
	maxQueue   int
	timeouts   int64
	rtxBytes   int64
	flows      int
	unfinished int
	group      *sim.GroupStats
	// Sizes of the exported telemetry files and the number of packet
	// spans in the trace (dumbbell_tcp_observed, traced pass).
	traceBytes, metricsBytes, obsSpans int

	start   time.Time
	limit   time.Duration
	runWall time.Duration
	wall    time.Duration
	failed  string // why the trial failed; empty when it passed
	digest  digest
}

// tooSlow is the panic that stops a trial running past its limit.
type tooSlow struct{ limit time.Duration }

// phase times fn against one of the rep's three phase totals and, on the
// traced pass, records it as a span of the benchmark's own layer.
func (r *rep) phase(total *time.Duration, name string, fn func()) {
	id := r.tr.begin("bench", name)
	t0 := now()
	fn()
	*total += now().Sub(t0)
	r.tr.end(id)
}

// span records fn as one call into layer on the traced pass; untraced,
// it only calls fn.
func (r *rep) span(layer, name string, fn func()) {
	id := r.tr.begin(layer, name)
	fn()
	r.tr.end(id)
}

// trial runs fn as the rep's next trial. A panic, an overrun of the
// wall-time limit or a failure the trial reports itself marks the trial
// failed; the rep carries on with the next one.
func (r *rep) trial(name, proto string, fn func(t *trial)) {
	t := &trial{name: name, proto: proto, digest: newDigest(), start: now()}
	if i := len(r.trials); i < len(r.limits) {
		t.limit = r.limits[i]
	}
	r.trials = append(r.trials, t)
	depth := 0
	if r.tr != nil {
		r.tr.trial, depth = name, len(r.tr.open)
	}
	defer func() {
		if p := recover(); p != nil {
			if ts, ok := p.(tooSlow); ok {
				t.fail(fmt.Sprintf("ran past %v, 10x its warm-up time", ts.limit))
			} else {
				t.fail(fmt.Sprintf("panic: %v", p))
			}
		}
		if r.tr != nil {
			for len(r.tr.open) > depth { // spans a panic left open
				r.tr.end(r.tr.open[len(r.tr.open)-1])
			}
			r.tr.trial = ""
		}
		t.wall = now().Sub(t.start)
	}()
	fn(t)
}

func (t *trial) fail(why string) {
	if t.failed == "" {
		t.failed = why
	}
}

// runPhase is the run phase of one trial: fn is the event loop. The
// collection and the malloc counts around it are outside the timed
// region. Collecting here starts every run phase at the same point of the
// collector's cycle (live heap = the built scenario), which is what keeps
// peak RSS and the number of collections in the run comparable from one
// process to the next.
func (r *rep) runPhase(t *trial, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	before := r.run
	r.phase(&r.run, "run", fn)
	t.runWall = r.run - before
	runtime.ReadMemStats(&m1)
	r.runMallocs += m1.Mallocs - m0.Mallocs
}

// runSlices is the number of RunUntil calls a fixed interval is cut into,
// traced or not, so both passes drive the engine identically and a trial
// that overruns its limit is stopped between slices.
const runSlices = 8

// runUntil advances s to end in runSlices equal steps.
func (r *rep) runUntil(t *trial, s *sim.Simulator, end sim.Time) {
	start := s.Now()
	for i := 1; i <= runSlices; i++ {
		r.step(t, s, start+(end-start)*sim.Time(i)/runSlices)
	}
}

// step is one RunUntil call, a span of the sim layer on the traced pass.
func (r *rep) step(t *trial, s *sim.Simulator, until sim.Time) {
	id := r.tr.begin("sim", "RunUntil")
	s.RunUntil(until)
	r.tr.end(id)
	if t.limit > 0 && now().Sub(t.start) > t.limit {
		panic(tooSlow{t.limit})
	}
}

// collectNet folds the network's port counters and the engine's dispatch
// counters into the trial and its digest.
func (t *trial) collectNet(s *sim.Simulator, net *netsim.Network) {
	t.events = s.Executed()
	if g := net.Group(); g != nil {
		gs := g.Stats()
		t.group = &gs
		for _, sh := range gs.PerShard {
			t.heapDisp += sh.HeapDispatch
			t.laneDisp += sh.LaneDispatch
		}
	} else {
		t.heapDisp, t.laneDisp = s.DispatchStats()
	}
	for _, n := range net.Nodes() {
		for _, p := range n.Ports() {
			t.hops += p.TxPackets
			t.txBytes += p.TxFrames
			t.drops += p.Drops
			if p.MaxQueue > t.maxQueue {
				t.maxQueue = p.MaxQueue
			}
			t.digest.add(uint64(p.TxPackets), uint64(p.Drops))
		}
	}
	t.digest.add(t.events, uint64(t.hops), uint64(t.drops), uint64(t.txBytes))
}

// rtxBytes sums retransmitted bytes over the senders of flows 1..flows.
// Every transport registers its sender at the source host under the flow
// id, so the records are reachable without the workload generators
// having to expose their connections.
func rtxBytes(hosts []*netsim.Host, flows int) (n int64) {
	for _, h := range hosts {
		for id := 1; id <= flows; id++ {
			if s, ok := h.Endpoint(netsim.FlowID(id)).(transport.Sender); ok {
				n += s.Stats().RtxBytes
			}
		}
	}
	return n
}

// digest is the FNV-64a fingerprint of what a trial simulated: two
// commits (or two engines) with equal digests simulated the same thing.
type digest struct{ h uint64 }

func newDigest() digest { return digest{14695981039346656037} }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h = (d.h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
}

func (d *digest) addString(s string) {
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * 1099511628211
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", d.h) }

// repDigest combines the trial digests in trial order.
func (r *rep) digest() digest {
	d := newDigest()
	for _, t := range r.trials {
		d.add(t.digest.h)
	}
	return d
}

func (r *rep) events() (n uint64) {
	for _, t := range r.trials {
		n += t.events
	}
	return n
}

func (r *rep) hops() (n int64) {
	for _, t := range r.trials {
		n += t.hops
	}
	return n
}

func (r *rep) failedTrials() (n int) {
	for _, t := range r.trials {
		if t.failed != "" {
			n++
		}
	}
	return n
}

// runRep runs one rep of w into r, whose tr, dir and limits the caller
// has set. The collection that precedes the rep and the memory
// statistics around it are outside every timed phase.
func runRep(w *workload, sz *sizes, seed int64, r *rep) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := r.tr.begin("bench", "rep")
	w.rep(r, sz, seed)
	r.tr.end(root)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return os.RemoveAll(r.dir)
}

// trialLimits is ten times each trial's wall time in the warm-up rep.
func trialLimits(warm *rep) []time.Duration {
	out := make([]time.Duration, len(warm.trials))
	for i, t := range warm.trials {
		out[i] = 10*t.wall + time.Second
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
