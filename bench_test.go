package tfcsim

// The engine benchmarks and their tier-1 alloc gates: one saturated
// dumbbell observed at three levels. The paper's figures are `tfcsim run
// <name>` (asserted in tfcsim_test.go and claims.go); what a user waits
// for is measured by `go run ./benchmark`.

import (
	"fmt"
	"runtime"
	"testing"

	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// benchBuffer is benchDumbbell's bottleneck buffer.
const benchBuffer = 1 << 20

// benchDumbbell builds the saturated dumbbell the engine benchmarks share:
// h1 —40G— sw —10G— h2 with a 1 MB buffer at the bottleneck and one greedy
// TCP flow. The faster access link puts the flow's queue at the switch,
// as in every scenario of the paper: it fills the 1 MB buffer and drops,
// so loss holds the window — and with it every pool, ring and table — to
// a working set the untimed pre-roll reaches. It also returns the sw→h2
// bottleneck port.
func benchDumbbell(s *Simulator) (*Network, *Host, *Host, *Port) {
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	net.Connect(h1, sw, LinkConfig{Rate: 40 * Gbps, Delay: 5 * Microsecond})
	net.Connect(sw, h2, LinkConfig{Rate: 10 * Gbps, Delay: 5 * Microsecond, BufA: benchBuffer})
	net.ComputeRoutes()
	return net, h1, h2, sw.Ports()[1]
}

// benchHops sums transmitted packets over every port (the pkt-hop count).
func benchHops(net *Network) int64 {
	var hops int64
	for _, n := range net.Nodes() {
		for _, p := range n.Ports() {
			hops += p.TxPackets
		}
	}
	return hops
}

// Engine-benchmark measurement windows. The scenario runs from 0 to
// benchEnd; the timed/memory-measured window starts at benchSettle, after
// an untimed pre-roll that reaches steady state (pools, the run buffer and
// rings at their working-set sizes, slow start over). The determinism
// canary Mevents/simsec still uses the full 0→benchEnd run, so its value
// is comparable across engine generations.
const (
	benchSettle = 5 * sim.Millisecond
	benchEnd    = 50 * sim.Millisecond
)

// engineBench is the scenario the three engine benchmarks and their tier-1
// alloc gates share: one greedy TCP flow over benchDumbbell, observed by
// nothing, by a live telemetry trial, or by the full observatory on top.
// It accumulates the measured windows of its iterations.
type engineBench struct {
	col *telemetry.Collector // nil: every probe field stays nil
	obs *Observatory         // nil: telemetry only
	net *Network             // the current iteration's
	nic *Port                // its h1 NIC
	btl *Port                // its sw→h2 bottleneck port

	iters             int
	ev0               uint64
	hops0             int64
	ms0               runtime.MemStats
	events, winEvents uint64
	winHops           int64
	mallocs           uint64
}

// What observes an engineBench's run; each level includes the one before.
const (
	engineBare = iota
	engineTelemetry
	engineObs
)

func newEngineBench(level int) *engineBench {
	e := &engineBench{}
	if level >= engineTelemetry {
		e.col = telemetry.NewCollector(telemetry.Options{})
	}
	if level >= engineObs {
		e.obs = NewObservatory(ObsOptions{SpanEvery: 1, SpanSeed: 1, Watchdogs: true, FlightDir: "-"})
		e.obs.Attach("bench", e.col)
	}
	return e
}

// prepare builds one iteration and takes it to the start of the measured
// window: set-up, the pre-roll to benchSettle, a collection. The caller
// runs the simulator to benchEnd and calls finish; nothing between the two
// belongs to anyone else.
func (e *engineBench) prepare() *Simulator {
	tel := e.col.Trial(fmt.Sprintf("iter%06d", e.iters))
	e.iters++
	s := NewSimulator(1)
	tel.Bind(s)
	net, h1, h2, btl := benchDumbbell(s)
	e.net, e.nic, e.btl = net, h1.NIC(), btl
	telemetry.InstrumentNetwork(tel, net)
	d := &Dialer{Sim: s, Proto: TCP}
	if tel != nil {
		d.Probe = tel.DialProbe
	}
	conn := d.Dial(h1, h2, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(1 << 30)
	s.RunUntil(benchSettle)
	e.ev0, e.hops0 = s.Executed(), benchHops(net)
	runtime.GC()
	runtime.ReadMemStats(&e.ms0)
	return s
}

// finish closes the measured window prepare opened.
func (e *engineBench) finish(s *Simulator) {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	e.mallocs += ms1.Mallocs - e.ms0.Mallocs
	e.events += s.Executed()
	e.winEvents += s.Executed() - e.ev0
	e.winHops += benchHops(e.net) - e.hops0
}

func (e *engineBench) allocsPerHop() float64 { return float64(e.mallocs) / float64(e.winHops) }

// bench times the window. Mevents/simsec is scenario-determined (a
// determinism canary: it must not move across engine changes);
// Mevents/wallsec and allocs/pkt-hop are the performance figures. Set-up,
// warm-up and pre-roll are untimed: ns/op, B/op, allocs/op and the
// reported metrics all cover exactly the steady-state window.
func (e *engineBench) bench(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := e.prepare()
		b.StartTimer()
		s.RunUntil(benchEnd)
		b.StopTimer()
		e.finish(s)
		b.StartTimer()
	}
	b.StopTimer()
	simsec := benchEnd.Seconds() * float64(b.N)
	b.ReportMetric(float64(e.events)/simsec/1e6, "Mevents/simsec")
	b.ReportMetric(float64(e.winEvents)/b.Elapsed().Seconds()/1e6, "Mevents/wallsec")
	b.ReportMetric(e.allocsPerHop(), "allocs/pkt-hop")
}

// gate is the tier-1 form of the benchmark's alloc budget: one window, and
// the engine must not allocate in it — 0.000 allocs/pkt-hop, to the three
// decimals the figure is quoted at (a few dozen stray runtime allocations
// over ~10^5 packet hops pass; one allocation per thousand hops does not).
// Nothing is pre-sized: the budget holds only because the pre-roll fills
// the bottleneck, so the gate also checks that the queue sits at the
// switch — at least half the buffer there, a small fraction of it in h1's
// NIC.
func (e *engineBench) gate(t *testing.T) {
	s := e.prepare()
	s.RunUntil(benchEnd)
	e.finish(s)
	t.Logf("%d allocations over %d packet hops; queue peaks: bottleneck %d B, h1 NIC %d B",
		e.mallocs, e.winHops, e.btl.MaxQueue, e.nic.MaxQueue)
	if r := e.allocsPerHop(); r >= 0.0005 {
		t.Errorf("%d allocations over %d packet hops in the settled window = %.4f allocs/pkt-hop, want 0.000",
			e.mallocs, e.winHops, r)
	}
	if e.btl.MaxQueue < benchBuffer/2 {
		t.Errorf("bottleneck queue peaked at %d B, want at least half its %d B buffer", e.btl.MaxQueue, benchBuffer)
	}
	if e.nic.MaxQueue > benchBuffer/16 {
		t.Errorf("h1's NIC queue peaked at %d B, want at most %d B: the queue belongs at the switch", e.nic.MaxQueue, benchBuffer/16)
	}
}

// BenchmarkEngineThroughput measures raw simulator event throughput with a
// saturated dumbbell — the substrate cost every experiment pays. No probe
// is installed here (the network's kind set is empty, the per-dial taps
// nil), so its figures also prove that the disabled path of the
// observation seam costs nothing.
func BenchmarkEngineThroughput(b *testing.B) { newEngineBench(engineBare).bench(b) }

// BenchmarkEngineThroughputTelemetry runs the same saturated dumbbell
// with a live telemetry trial attached (forwarding-path probe, transport
// probe, queue gauges, event recorder), so the delta against
// BenchmarkEngineThroughput is the telemetry layer's enabled-path cost.
func BenchmarkEngineThroughputTelemetry(b *testing.B) { newEngineBench(engineTelemetry).bench(b) }

// BenchmarkEngineThroughputObs runs the telemetry scenario with the full
// runtime observatory attached on top: every flow span-traced
// (SpanEvery=1), invariant watchdogs armed, and the flight recorder
// ring live (dumps disabled). The delta against
// BenchmarkEngineThroughputTelemetry is the observatory's enabled-path
// cost. Spans fill the recorder's slots, which grow a segment at a time
// (nine segments in a trial's life; the last one, with its key array, is
// inside the window) and are then reused by compactions that allocate
// nothing, the flow's journey ring stops growing at the peak in-flight
// count the full recorder sets, the flight ring is a fixed array, and
// watchdogs keep no per-event state, so observation must not add a single
// steady-state allocation. The HTTP endpoint is off, as in production runs
// without -http.
func BenchmarkEngineThroughputObs(b *testing.B) { newEngineBench(engineObs).bench(b) }

// TestEngineThroughputAllocs and TestEngineThroughputObsAllocs hold the
// steady-state engine path to its alloc budget, bare and with the full
// observatory attached, on every `go test`.
func TestEngineThroughputAllocs(t *testing.T)    { newEngineBench(engineBare).gate(t) }
func TestEngineThroughputObsAllocs(t *testing.T) { newEngineBench(engineObs).gate(t) }
