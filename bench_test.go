package tfcsim

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md
// §4 for the experiment index). Each benchmark runs a reduced-scale but
// structurally faithful version of the figure's scenario and reports the
// figure's headline quantity via b.ReportMetric, so `go test -bench=.`
// regenerates the whole evaluation in miniature. Run
// `go run ./cmd/tfcsim all -scale paper` for the full-scale tables.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// benchPool runs a benchmark's protocol trials serially (benchmarks time
// the work) with the pre-pool seed schedule, keeping reported metrics
// comparable across the API change.
func benchPool() *runner.Pool { return runner.Serial(1).Paired() }

func BenchmarkFig06RTTB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.RTTAccuracy(exp.RTTAccuracyConfig{
			Duration: 300 * sim.Millisecond, Window: 50 * sim.Millisecond,
		})
		b.ReportMetric(r.MeasuredRTTB.Percentile(50), "rttb_p50_us")
		b.ReportMetric(r.Reference.Percentile(50), "refRTT_p50_us")
	}
}

func BenchmarkFig07Ne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NeAccuracy(exp.NeAccuracyConfig{Interval: 25 * sim.Millisecond})
		b.ReportMetric(r.MeanAbsErr, "ne_abs_err_flows")
	}
}

func BenchmarkFig08Queue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QueueFairnessConfig{StartInterval: 30 * sim.Millisecond}
		cfg.Proto = exp.TFC
		r := exp.QueueFairness(cfg)
		b.ReportMetric(r.AvgQueue/1024, "tfc_avg_queue_KB")
		b.ReportMetric(float64(r.MaxQueue)/1024, "tfc_max_queue_KB")
	}
}

func BenchmarkFig09GoodputFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QueueFairnessConfig{StartInterval: 30 * sim.Millisecond}
		cfg.Proto = exp.TFC
		r := exp.QueueFairness(cfg)
		b.ReportMetric(r.AggGoodput/1e6, "tfc_agg_Mbps")
		b.ReportMetric(r.JainIndex, "tfc_jain")
	}
}

func BenchmarkFig10Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QueueFairnessConfig{StartInterval: 30 * sim.Millisecond}
		cfg.Proto = exp.TFC
		r := exp.QueueFairness(cfg)
		if r.ConvergeIn > 0 {
			b.ReportMetric(r.ConvergeIn.Micros(), "tfc_flow3_converge_us")
		}
	}
}

func BenchmarkFig11WorkConserving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.WorkConserving(exp.WorkConservingConfig{Duration: 300 * sim.Millisecond})
		b.ReportMetric(r.UplinkGoodput/1e6, "uplink_Mbps")
		b.ReportMetric(r.DownlinkGoodput/1e6, "downlink_Mbps")
	}
}

func BenchmarkFig12Incast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.IncastConfig{Rounds: 3}
		cfg.Proto = exp.TFC
		cfg.Senders = 60
		tfc := exp.Incast(cfg)
		cfg.Proto = exp.TCP
		tcp := exp.Incast(cfg)
		b.ReportMetric(tfc.Goodput/1e6, "tfc@60_Mbps")
		b.ReportMetric(tcp.Goodput/1e6, "tcp@60_Mbps")
		b.ReportMetric(float64(tfc.Drops), "tfc_drops")
	}
}

func BenchmarkFig13FCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.BenchmarkConfig{
			Duration: 150 * sim.Millisecond, QueryRate: 150, BgFlowRate: 250,
		}
		rs, err := exp.BenchmarkAll(context.Background(), benchPool(), cfg, []exp.Proto{exp.TFC, exp.TCP})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].QueryFCT.Mean(), "tfc_query_mean_us")
		b.ReportMetric(rs[1].QueryFCT.Mean(), "tcp_query_mean_us")
		b.ReportMetric(rs[0].QueryFCT.Percentile(99.9), "tfc_query_p999_us")
		b.ReportMetric(rs[1].QueryFCT.Percentile(99.9), "tcp_query_p999_us")
	}
}

func BenchmarkFig14Rho0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := exp.Rho0Sweep(exp.Rho0SweepConfig{
			Rho0s: []float64{0.90, 1.00}, Duration: 250 * sim.Millisecond,
		})
		b.ReportMetric(pts[0].Goodput/1e6, "rho0.90_Mbps")
		b.ReportMetric(pts[1].Goodput/1e6, "rho1.00_Mbps")
		b.ReportMetric(pts[1].AvgQ/1024, "rho1.00_avgQ_KB")
	}
}

func BenchmarkFig15IncastLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.IncastConfig{
			Rate: 10 * netsim.Gbps, BufBytes: 512 << 10,
			BlockBytes: 64 << 10, Rounds: 3,
		}
		cfg.Senders = 100
		cfg.Proto = exp.TFC
		tfc := exp.Incast(cfg)
		cfg.Proto = exp.TCP
		tcp := exp.Incast(cfg)
		b.ReportMetric(tfc.Goodput/1e9, "tfc@100_Gbps")
		b.ReportMetric(tcp.Goodput/1e9, "tcp@100_Gbps")
		b.ReportMetric(tcp.MaxTOBlock, "tcp_maxTO_per_block")
	}
}

func BenchmarkFig16FCTLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.BenchmarkConfig{
			Racks: 6, PerRack: 6, BufBytes: 48 << 10,
			Duration: 80 * sim.Millisecond, QueryRate: 100, BgFlowRate: 200,
		}
		rs, err := exp.BenchmarkAll(context.Background(), benchPool(), cfg, []exp.Proto{exp.TFC, exp.TCP})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].QueryFCT.Percentile(95), "tfc_query_p95_us")
		b.ReportMetric(rs[1].QueryFCT.Percentile(95), "tcp_query_p95_us")
	}
}

func BenchmarkAblationNoAdjust(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.WorkConserving(exp.WorkConservingConfig{
			Duration: 300 * sim.Millisecond, DisableAdjust: true,
		})
		b.ReportMetric(r.DownlinkGoodput/1e6, "ablated_downlink_Mbps")
	}
}

func BenchmarkAblationNoDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.IncastConfig{Rounds: 2, BufBytes: 64 << 10}
		cfg.Proto = exp.TFC
		cfg.Senders = 80
		cfg.TFC.DisableDelay = true
		r := exp.Incast(cfg)
		b.ReportMetric(float64(r.Drops), "ablated_drops")
	}
}

func BenchmarkAblationNoDecouple(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.QueueFairnessConfig{StartInterval: 30 * sim.Millisecond}
		cfg.Proto = exp.TFC
		cfg.TFC.DisableDecouple = true
		r := exp.QueueFairness(cfg)
		b.ReportMetric(r.AvgQueue/1024, "coupled_avg_queue_KB")
	}
}

func BenchmarkExtensionFatTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.PermutationConfig{Duration: 100 * sim.Millisecond}
		cfg.Proto = exp.TFC
		r := exp.Permutation(cfg)
		b.ReportMetric(r.AggGoodput/1e9, "tfc_perm_Gbps")
		b.ReportMetric(float64(r.MaxQueue)/1024, "tfc_fabric_maxQ_KB")
	}
}

func BenchmarkExtensionChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.ChurnConfig{Duration: 200 * sim.Millisecond}
		cfg.Proto = exp.TFC
		r := exp.Churn(cfg)
		b.ReportMetric(r.Utilization, "tfc_util_of_active")
		b.ReportMetric(r.AvgQ/1024, "tfc_avgQ_KB")
	}
}

func BenchmarkExtensionCreditIncast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.IncastConfig{Rounds: 3, BufBytes: 64 << 10}
		cfg.Proto = exp.CREDIT
		cfg.Senders = 60
		r := exp.Incast(cfg)
		b.ReportMetric(r.Goodput/1e6, "credit@60_Mbps")
		b.ReportMetric(float64(r.Drops), "credit_data_drops")
	}
}

// benchDumbbell builds the saturated 10G dumbbell the engine benchmarks
// share: h1 — sw — h2 with a 1 MB bottleneck buffer and one greedy TCP
// flow.
func benchDumbbell(s *Simulator) (*Network, *Host, *Host) {
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	sw := net.NewSwitch("sw")
	link := LinkConfig{Rate: 10 * Gbps, Delay: 5 * Microsecond}
	net.Connect(h1, sw, link)
	net.Connect(sw, h2, LinkConfig{Rate: 10 * Gbps, Delay: 5 * Microsecond, BufA: 1 << 20})
	net.ComputeRoutes()
	return net, h1, h2
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
// an untimed pre-roll that reaches steady state (lanes created, pools and
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
// window: set-up, the pre-roll to benchSettle, warm-up of every pool and
// ring, a collection. The caller runs the simulator to benchEnd and calls
// finish; nothing between the two belongs to anyone else.
func (e *engineBench) prepare() *Simulator {
	tel := e.col.Trial(fmt.Sprintf("iter%06d", e.iters))
	e.iters++
	s := NewSimulator(1)
	tel.Bind(s)
	net, h1, h2 := benchDumbbell(s)
	e.net = net
	telemetry.InstrumentNetwork(tel, net)
	d := &Dialer{Sim: s, Proto: TCP}
	if tel != nil {
		d.Probe = tel.DialProbe
	}
	conn := d.Dial(h1, h2, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(1 << 30)
	s.RunUntil(benchSettle)
	s.Warm(4096, 1<<12)
	net.Warm(1<<16, 1<<16)
	tel.Warm()
	e.obs.Warm(1 << 16)
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
func (e *engineBench) gate(t *testing.T) {
	s := e.prepare()
	s.RunUntil(benchEnd)
	e.finish(s)
	if r := e.allocsPerHop(); r >= 0.0005 {
		t.Errorf("%d allocations over %d packet hops in the settled window = %.4f allocs/pkt-hop, want 0.000",
			e.mallocs, e.winHops, r)
	}
}

// BenchmarkEngineThroughput measures raw simulator event throughput with a
// saturated 10G dumbbell — the substrate cost every experiment pays. Every
// probe field is nil here, so its figures also prove that the nil-check
// fast path of the observation seam costs nothing.
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
// cost. Spans append to the recorder's buffer, which compacts in place and
// which tel.Warm has grown to its full size before the window (an unwarmed
// recorder grows on demand, a dozen allocations in a trial's life), the
// flight ring is a fixed array, and watchdogs keep no per-event state, so
// observation must not add a single steady-state allocation. The HTTP
// endpoint is off, as in production runs without -http.
func BenchmarkEngineThroughputObs(b *testing.B) { newEngineBench(engineObs).bench(b) }

// TestEngineThroughputAllocs and TestEngineThroughputObsAllocs hold the
// steady-state engine path to its alloc budget, bare and with the full
// observatory attached, on every `go test`.
func TestEngineThroughputAllocs(t *testing.T)    { newEngineBench(engineBare).gate(t) }
func TestEngineThroughputObsAllocs(t *testing.T) { newEngineBench(engineObs).gate(t) }

// BenchmarkShardedFatTree drives the k=16 fat-tree permutation workload
// through the conservative parallel engine at increasing shard counts —
// the BENCH_3 artifact (scripts/bench.sh shard-sweep). Mevents/simsec is
// the determinism canary: sharded execution is byte-identical to
// sequential, so the event count per simulated second cannot move with
// the shard count. Mevents/wallsec is the scaling figure; the parallel
// engine's epoch barriers are pure overhead on a single-core host, so
// speedup only appears with at least as many cores as shards. It is
// computed over the run phase only: the injected wall clock
// (exp.PermutationConfig.Clock) splits each trial into build (topology,
// routing, partition, attach) and run (the event loop), and build_frac
// reports build's share of the two. The same clock turns on the group's
// barrier/work attribution, so barrier_frac reports the share of shard
// wall time stalled at epoch barriers — the self-profiling figure that
// explains the scaling curve.
func BenchmarkShardedFatTree(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events uint64
			var simsec float64
			var buildNs, runNs float64
			var barrierNs, shardNs float64
			for i := 0; i < b.N; i++ {
				cfg := exp.PermutationConfig{}
				cfg.Proto = exp.TFC
				cfg.Seed = 1
				cfg.K = 16
				cfg.Shards = shards
				cfg.Warmup = sim.Millisecond
				cfg.Duration = 5 * sim.Millisecond
				cfg.Clock = func() int64 { return time.Now().UnixNano() }
				r := exp.Permutation(cfg)
				events += r.Events
				simsec += cfg.Duration.Seconds()
				buildNs += float64(r.BuildNs)
				runNs += float64(r.RunNs)
				if r.Group != nil {
					for _, sh := range r.Group.PerShard {
						barrierNs += float64(sh.BarrierNs)
					}
					shardNs += float64(r.Group.WindowNs) * float64(r.Group.Shards)
				}
			}
			b.ReportMetric(float64(events)/simsec/1e6, "Mevents/simsec")
			b.ReportMetric(float64(events)/(runNs/1e9)/1e6, "Mevents/wallsec")
			b.ReportMetric(buildNs/(buildNs+runNs), "build_frac")
			if shardNs > 0 {
				b.ReportMetric(barrierNs/shardNs, "barrier_frac")
			}
		})
	}
}
