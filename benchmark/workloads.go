package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tfcsim"
	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/obs"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
	"tfcsim/internal/telemetry"
	"tfcsim/internal/transport"
	wl "tfcsim/internal/workload"
)

// workload is one named input of the benchmark. rep runs one pass of it.
type workload struct {
	name string
	// repSeconds is one rep's wall time on the reference box (2 cores);
	// with -seconds it fixes the number of timed reps, so parent and
	// change always measure the same amount of work.
	repSeconds float64
	// noWarmup skips the untimed warm-up rep (run_all_quick: its set-up
	// phase already runs the whole stack, and a rep is the longest here).
	noWarmup bool
	rep      func(r *rep, sz *sizes, seed int64)
	// extra measures, on the traced pass, what needs runs of its own
	// (deltas against a differently configured run of the same scenario).
	extra func(m map[string]float64, ref *rep, sz *sizes, seed int64, dir string) error
}

// minReps is the fewest timed reps a run reports a median of.
func (w *workload) minReps() int {
	if w.noWarmup {
		return 2
	}
	return 3
}

// sizes fixes the simulated work of every workload. full is what the
// benchmark measures; the self-test runs the same code at its own scale.
type sizes struct {
	dumbbellSim sim.Time // dumbbell_tcp simulated interval
	observedSim sim.Time // dumbbell_tcp_observed simulated interval

	fatK            int
	fatWarm, fatEnd sim.Time

	incastSenders []int
	incastRounds  int

	wsRacks, wsPerRack int
	wsArrivals         sim.Time
	wsQueries, wsFlows float64 // arrivals per simulated second

	probe int // events (or packet-hops) per layer probe

	// runAllOnly, when set, restricts run_all_quick to these experiments
	// and skips the claims check (self-test only).
	runAllOnly []string
}

var full = sizes{
	dumbbellSim: 5 * sim.Second,
	observedSim: sim.Second,
	fatK:        16, fatWarm: sim.Millisecond, fatEnd: 31 * sim.Millisecond,
	incastSenders: []int{40, 100}, incastRounds: 20,
	wsRacks: 18, wsPerRack: 20, wsArrivals: 500 * sim.Millisecond,
	wsQueries: 40, wsFlows: 2000,
	probe: 1 << 20,
}

var workloads = []*workload{
	{name: "dumbbell_tcp", repSeconds: 2.0,
		rep: func(r *rep, sz *sizes, seed int64) { dumbbell(r, sz.dumbbellSim, seed, obsOff) }},
	{name: "dumbbell_tcp_observed", repSeconds: 4.2, extra: observedDeltas,
		rep: func(r *rep, sz *sizes, seed int64) { dumbbell(r, sz.observedSim, seed, obsFull) }},
	{name: "fattree_k16_tfc", repSeconds: 3.2,
		rep: func(r *rep, sz *sizes, seed int64) { fatTree(r, sz, seed, 1) }},
	{name: "fattree_k16_tfc_shards2", repSeconds: 2.6, extra: partitionCost,
		rep: func(r *rep, sz *sizes, seed int64) { fatTree(r, sz, seed, 2) }},
	{name: "incast_matrix", repSeconds: 3.9, rep: incastMatrix},
	{name: "websearch_leafspine", repSeconds: 2.4, rep: webSearch},
	{name: "run_all_quick", repSeconds: 7.0, noWarmup: true, rep: runAllQuick},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// layerOf maps a transport name to the package that implements it.
func layerOf(proto string) string {
	if proto == "tfc" {
		return "core.tfc"
	}
	return proto
}

// obsLevel selects how much of the observation stack the dumbbell carries.
type obsLevel int

const (
	obsOff       obsLevel = iota // every probe field nil
	obsTelemetry                 // telemetry collector only
	obsFull                      // telemetry + observatory, files written
)

// dumbbell is h1 - sw - h2 at 10 Gbps with a 1 MB bottleneck buffer and
// one greedy TCP flow: the engine, port batching and ack clocking with
// nothing else in the way. With level > obsOff the same run carries the
// telemetry probes and, at obsFull, the observatory with every flow
// span-traced, the watchdogs armed, and trace and metrics JSON written.
func dumbbell(r *rep, simulated sim.Time, seed int64, level obsLevel) {
	r.trial("dumbbell", "tcp", func(t *trial) {
		var (
			s    *sim.Simulator
			net  *netsim.Network
			conn *wl.Conn
			col  *telemetry.Collector
			o    *obs.Observatory
		)
		tracePath := filepath.Join(r.dir, "trace.json")
		metricsPath := filepath.Join(r.dir, "metrics.json")
		r.phase(&r.setup, "setup", func() {
			if level >= obsTelemetry {
				r.span("telemetry", "NewCollector", func() {
					opts := telemetry.Options{}
					if level == obsFull {
						opts.TracePath, opts.MetricsPath = tracePath, metricsPath
					}
					col = telemetry.NewCollector(opts)
				})
			}
			if level == obsFull {
				r.span("obs", "New+Attach", func() {
					o = obs.New(obs.Options{SpanEvery: 1, SpanSeed: 1, Watchdogs: true, FlightDir: "-"})
					o.Attach("bench", col)
				})
			}
			tel := col.Trial("dumbbell") // nil, like col, when unobserved
			var h1, h2 *netsim.Host
			r.span("netsim", "build", func() {
				s = sim.New(seed)
				tel.Bind(s)
				net = netsim.NewNetwork(s)
				net.PoolPackets = true
				h1, h2 = net.NewHost("h1"), net.NewHost("h2")
				sw := net.NewSwitch("sw")
				net.Connect(h1, sw, netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 5 * sim.Microsecond})
				net.Connect(sw, h2, netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: 1 << 20})
			})
			r.span("netsim", "ComputeRoutes", net.ComputeRoutes)
			r.span("telemetry", "InstrumentNetwork", func() { telemetry.InstrumentNetwork(tel, net) })
			r.span("workload", "Dial", func() {
				d := &wl.Dialer{Sim: s, Proto: wl.TCP}
				if tel != nil {
					d.Probe = tel.DialProbe
				}
				conn = d.Dial(h1, h2, nil, nil)
				conn.Sender.Open()
				conn.Sender.Send(1 << 40) // greedy: never drains in the interval
			})
		})
		r.runPhase(t, func() { r.runUntil(t, s, simulated) })
		r.phase(&r.export, "export", func() {
			r.span("exp", "collect", func() {
				t.collectNet(s, net)
				st := conn.Sender.Stats()
				t.flows, t.timeouts, t.rtxBytes = 1, st.Timeouts, st.RtxBytes
				t.digest.add(uint64(conn.Received()), uint64(st.Timeouts), uint64(st.RtxBytes))
				if conn.Received() > conn.Sender.Queued() {
					t.fail("received more bytes than were sent")
				}
			})
			r.span("telemetry", "WriteFiles", func() {
				if err := col.WriteFiles(); err != nil {
					t.fail(err.Error())
				}
			})
			r.span("obs", "FinishRun", func() { o.FinishRun("bench") })
			r.span("exp", "format", func() {
				tb := stats.Table{Title: "dumbbell", Header: []string{"proto", "goodput(Mbps)", "events", "drops"}}
				tb.AddRow("tcp", stats.Mbps(float64(conn.Received())*8/simulated.Seconds()),
					fmt.Sprint(t.events), fmt.Sprint(t.drops))
				r.writeFile(t, "dumbbell.txt", tb.String())
			})
			if level == obsFull {
				r.tracedOnly("bench", "obsFiles", func() { t.obsFiles(tracePath, metricsPath) })
			}
		})
	})
}

// observedDeltas prices the two observation layers: the same dumbbell,
// same simulated length, with nothing attached and with telemetry only,
// against the fully observed reference rep.
func observedDeltas(m map[string]float64, ref *rep, sz *sizes, seed int64, dir string) error {
	var run [2]float64
	for i, level := range []obsLevel{obsOff, obsTelemetry} {
		w := &workload{rep: func(r *rep, sz *sizes, seed int64) { dumbbell(r, sz.observedSim, seed, level) }}
		r := &rep{dir: dir}
		if err := runRep(w, sz, seed, r); err != nil {
			return err
		}
		run[i] = seconds(r.run)
	}
	m["telemetry.on_delta_frac"] = (run[1] - run[0]) / run[0]
	m["obs.on_delta_frac"] = (seconds(ref.run) - run[1]) / run[0]
	return nil
}

// partitionCost is the builder's time at two shards minus at one.
func partitionCost(m map[string]float64, _ *rep, sz *sizes, seed int64, _ string) error {
	build := func(shards int) float64 {
		runtime.GC()
		t0 := nowNs()
		exp.FatTree(exp.TopoConfig{Proto: exp.TFC, Seed: seed, Shards: shards}, sz.fatK, netsim.Gbps, exp.TestbedBuf)
		return float64(nowNs()-t0) / 1e9
	}
	one := build(1)
	m["netsim.partition_s"] = build(2) - one
	return nil
}

// obsFiles records the exported files' sizes and the number of causal
// packet spans in the trace (traced pass only: it re-reads the file).
func (t *trial) obsFiles(tracePath, metricsPath string) {
	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.fail(err.Error())
		return
	}
	mb, err := os.ReadFile(metricsPath)
	if err != nil {
		t.fail(err.Error())
		return
	}
	t.traceBytes, t.metricsBytes = len(tb), len(mb)
	t.obsSpans = bytes.Count(tb, []byte(`"cat":"`+obs.SpanCat+`"`))
}

// writeFile writes one exported artifact into the rep's scratch directory.
func (r *rep) writeFile(t *trial, name, content string) {
	if err := os.WriteFile(filepath.Join(r.dir, name), []byte(content), 0o644); err != nil {
		t.fail(err.Error())
	}
}

// fatTree is the k=16 fat tree (1024 hosts, 320 switches) under a
// cross-pod permutation of greedy TFC flows dialed here: host i of pod p
// sends to host i of pod p+1. Build and all-pairs routing are a visible
// set-up; forwarding crosses six hops with per-destination route lookups
// over ~5k ports. shards > 1 runs the same scenario through sim.Group.
func fatTree(r *rep, sz *sizes, seed int64, shards int) {
	r.trial(fmt.Sprintf("fattree-k%d-shards%d", sz.fatK, shards), "tfc", func(t *trial) {
		var (
			ft    *exp.FatTreeEnv
			conns []*wl.Conn
		)
		cfg := exp.TopoConfig{Proto: exp.TFC, Seed: seed, Shards: shards}
		r.phase(&r.setup, "setup", func() {
			r.span("exp", "build", func() {
				ft = exp.FatTree(cfg, sz.fatK, netsim.Gbps, exp.TestbedBuf)
			})
			r.reroute(ft.Net)
			if g := ft.Net.Group(); g != nil && r.tr != nil {
				// Only the traced pass pays for barrier attribution; the
				// untraced epoch loop carries no timing calls.
				g.SetClock(nowNs)
			}
			r.span("workload", "Dial", func() {
				for p := 0; p < ft.K; p++ {
					dstPod := ft.PodHosts[(p+1)%ft.K]
					for i, src := range ft.PodHosts[p] {
						c := ft.Dialer.Dial(src, dstPod[i], nil, nil)
						conns = append(conns, c)
						ft.Sim.At(0, func() {
							c.Sender.Open()
							c.Sender.Send(1 << 30)
						})
					}
				}
			})
		})
		r.runPhase(t, func() {
			r.step(t, ft.Sim, sz.fatWarm)
			r.runUntil(t, ft.Sim, sz.fatEnd)
		})
		r.phase(&r.export, "export", func() {
			var agg int64
			r.span("exp", "collect", func() {
				t.collectNet(ft.Sim, ft.Net)
				t.flows = len(conns)
				for _, c := range conns {
					st := c.Sender.Stats()
					t.timeouts += st.Timeouts
					t.rtxBytes += st.RtxBytes
					agg += c.Received()
					t.digest.add(uint64(c.Received()), uint64(st.Timeouts), uint64(st.RtxBytes))
					if c.Received() > c.Sender.Queued() {
						t.fail("received more bytes than were sent")
					}
				}
			})
			r.span("exp", "format", func() {
				res := exp.PermutationResult{
					Proto: exp.TFC, Hosts: len(conns), Drops: t.drops, MaxQueue: t.maxQueue,
					AggGoodput: float64(agg) * 8 / sz.fatEnd.Seconds(),
				}
				r.writeFile(t, "fattree.txt", exp.FormatPermutation([]exp.PermutationResult{res}))
			})
		})
	})
}

// reroute re-invokes ComputeRoutes on a network a builder has just
// finished, on the traced pass only: the builders compute routes inside
// their own call, so this is how routing gets a span of its own. The
// tables it installs are the ones already there.
// A collection first gives the re-run the heap headroom the builder's
// own call had, so what is timed is routing and not marking the finished
// topology.
func (r *rep) reroute(net *netsim.Network) {
	r.tracedOnly("bench", "GC", runtime.GC)
	r.tracedOnly("netsim", "ComputeRoutes", net.ComputeRoutes)
}

// tracedOnly runs fn as a span on the traced pass and not at all on the
// untraced one: a measurement the traced pass adds on purpose. Its time is
// kept apart, so that bench.trace_overhead_frac prices the tracing and
// not the extra work.
func (r *rep) tracedOnly(layer, name string, fn func()) {
	if r.tr == nil {
		return
	}
	t0 := nowNs()
	r.span(layer, name, fn)
	r.addedNs += nowNs() - t0
}

// incastMatrix is the paper's testbed incast (Fig 12: 1 Gbps, 256 KB
// buffer, 256 KB blocks) for every registered transport at two fan-ins.
// The topology is trivial; synchronized bursts, drops, RTO arm/cancel
// churn and retransmission do the work.
func incastMatrix(r *rep, sz *sizes, seed int64) {
	var points []exp.IncastPoint
	idx := 0
	for _, name := range transport.Names() {
		for _, n := range sz.incastSenders {
			proto, trialSeed := exp.Proto(name), runner.DeriveSeed(seed, idx)
			idx++
			r.trial(fmt.Sprintf("incast-%s-n%03d", name, n), name, func(t *trial) {
				points = append(points, incast(r, t, proto, n, sz.incastRounds, trialSeed))
			})
		}
	}
	// One more "trial" would distort the count; the sweep's table and CSV
	// are charged to the export phase directly.
	r.phase(&r.export, "export", func() {
		r.span("exp", "format", func() {
			last := r.trials[len(r.trials)-1]
			r.writeFile(last, "incast.txt", exp.FormatIncast("incast matrix (1 Gbps, 256 KB blocks)", points))
			if err := exp.SaveIncastCSV(r.dir, "incast.csv", points); err != nil {
				last.fail(err.Error())
			}
		})
	})
}

// incast runs one (transport, fan-in) cell the way exp.Incast does, with
// the phases separated.
func incast(r *rep, t *trial, proto exp.Proto, senders, rounds int, seed int64) exp.IncastPoint {
	const (
		block   = 256 << 10
		settle  = 5 * sim.Millisecond
		maxTime = 60 * sim.Second
	)
	var (
		e    *exp.Env
		bott *netsim.Port
		in   *wl.Incast
		qs   *stats.Sampler
	)
	r.phase(&r.setup, "setup", func() {
		var hosts []*netsim.Host
		var recv *netsim.Host
		r.span("exp", "build", func() {
			e, hosts, recv, bott = exp.Star(exp.TopoConfig{Proto: proto, Seed: seed}, senders, netsim.Gbps, exp.TestbedBuf)
		})
		r.reroute(e.Net)
		r.span("workload", "NewIncast", func() {
			in = wl.NewIncast(wl.IncastConfig{
				Dialer: e.Dialer, Senders: hosts, Receiver: recv,
				BlockBytes: block, Rounds: rounds,
			})
		})
		qs = stats.NewSampler(e.Sim, sim.Millisecond, func() float64 { return float64(bott.QueueBytes()) })
		r.span("workload", "Start", func() { in.Start(settle) })
	})
	r.runPhase(t, func() {
		for e.Sim.Now() < maxTime && in.RoundsDone < rounds && e.Sim.Live() > 0 {
			r.step(t, e.Sim, e.Sim.Now()+10*sim.Millisecond)
		}
	})
	var pt exp.IncastPoint
	r.phase(&r.export, "export", func() {
		r.span("exp", "collect", func() {
			qs.Stop()
			t.collectNet(e.Sim, e.Net)
			t.flows, t.timeouts = senders, in.TotalTimeouts()
			t.digest.add(uint64(in.BytesReceived()), uint64(t.timeouts), uint64(in.RoundsDone), uint64(e.Sim.Now()))
			elapsed := e.Sim.Now() - settle
			pt = exp.IncastPoint{
				Proto: proto, Senders: senders, BlockBytes: block,
				Goodput: float64(in.BytesReceived()) * 8 / elapsed.Seconds(),
				AvgQ:    qs.Series.MeanV(), MaxQ: bott.MaxQueue, Drops: bott.Drops,
				Timeouts: t.timeouts, MaxTOBlock: in.MaxTimeoutsPerBlock(),
				Rounds: in.RoundsDone, Elapsed: elapsed, Events: t.events,
			}
			if in.BytesReceived() > int64(senders)*block*int64(rounds) {
				t.fail("received more bytes than were sent")
			}
			// TFC's claim is lossless fan-in: short of its rounds or with
			// drops it is wrong. The baselines may collapse; that is a
			// result (reported per transport), not a failure.
			if proto == exp.TFC && (in.RoundsDone < rounds || t.drops > 0) {
				t.fail(fmt.Sprintf("tfc incast: %d/%d rounds, %d drops", in.RoundsDone, rounds, t.drops))
			}
		})
		r.tracedOnly("bench", "rtxBytes", func() { t.rtxBytes = rtxBytes(e.Hosts, senders) })
	})
	return pt
}

// wsFlow is one generated flow of the web-search workload and, once the
// run is over, its outcome: the record workload.Benchmark keeps.
type wsFlow struct {
	wl.FlowRecord
	src, dst int // indexes into the environment's hosts
}

// webSearchFlows generates the workload's open-loop arrivals from the
// seed: a Poisson process conditioned on its count. Queries arrive at
// uniform times, each fanning 2 KB from every other host into a random
// aggregator; background flows run between random pairs, their sizes a
// stratified sample of the web-search CDF (every 64th order statistic of
// a 64x oversample). A seed decides where and when the bytes go, not how
// many there are. workload.NewBenchmark draws both freely: over seeds 1-6
// its flow count and offered bytes spread alloc_mb by 8% and run_s by 7%
// (interquartile), against 0.7% and 3% here, and the benchmark is accepted
// on ten different seeds with one bound per metric for all workloads.
func webSearchFlows(seed int64, hosts int, sz *sizes) []*wsFlow {
	const oversample = 64
	rng := rand.New(rand.NewSource(seed))
	arrive := func() sim.Time { return sim.Time(rng.Int63n(int64(sz.wsArrivals))) }
	var flows []*wsFlow
	for q := int(sz.wsQueries * sz.wsArrivals.Seconds()); q > 0; q-- {
		at, agg := arrive(), rng.Intn(hosts)
		for h := 0; h < hosts; h++ {
			if h != agg {
				flows = append(flows, &wsFlow{wl.FlowRecord{Bytes: 2 << 10, Start: at, Query: true}, h, agg})
			}
		}
	}
	n := int(sz.wsFlows * sz.wsArrivals.Seconds())
	dist := wl.WebSearchFlowSizes()
	sample := make([]float64, n*oversample)
	for i := range sample {
		sample[i] = dist.Sample(rng)
	}
	sort.Float64s(sample)
	for _, i := range rng.Perm(n) {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		size := max(1, int64(sample[i*oversample+oversample/2]))
		flows = append(flows, &wsFlow{wl.FlowRecord{Bytes: size, Start: arrive()}, src, dst})
	}
	return flows
}

// webSearch is the paper-scale leaf-spine (Fig 16: 18 racks x 20 servers,
// 512 KB buffers) under open-loop arrivals in simulated time (see
// webSearchFlows), once per protocol. Thousands of dial/open/complete
// cycles and FCT samples: the flow-churn cost shows here and nowhere else.
func webSearch(r *rep, sz *sizes, seed int64) {
	var results []*exp.BenchmarkResult
	for i, proto := range []exp.Proto{exp.TFC, exp.DCTCP, exp.TCP} {
		trialSeed := runner.DeriveSeed(seed, i)
		r.trial("websearch-"+string(proto), string(proto), func(t *trial) {
			flows := webSearchFlows(trialSeed, sz.wsRacks*sz.wsPerRack, sz)
			var e *exp.Env
			done := 0
			r.phase(&r.setup, "setup", func() {
				r.span("exp", "build", func() {
					e = exp.LeafSpine(exp.TopoConfig{Proto: proto, Seed: trialSeed}, sz.wsRacks, sz.wsPerRack, 512<<10)
				})
				r.reroute(e.Net)
				r.span("workload", "schedule", func() {
					for _, f := range flows {
						e.Sim.At(f.Start, func() {
							var c *wl.Conn
							c = e.Dialer.Dial(e.Hosts[f.src], e.Hosts[f.dst], nil, func() {
								st := c.Sender.Stats()
								f.FCT, f.Timeouts, f.Done = st.FCT(), st.Timeouts, true
								done++
							})
							c.Sender.Open()
							c.Sender.Send(f.Bytes)
							c.Sender.Close()
						})
					}
				})
			})
			maxTime := sz.wsArrivals + 30*sim.Second
			r.runPhase(t, func() {
				for e.Sim.Now() < maxTime && e.Sim.Live() > 0 && done < len(flows) {
					r.step(t, e.Sim, e.Sim.Now()+50*sim.Millisecond)
				}
			})
			r.phase(&r.export, "export", func() {
				res := &exp.BenchmarkResult{Proto: proto, Flows: len(flows)}
				r.span("exp", "collect", func() {
					t.collectNet(e.Sim, e.Net)
					res.Events = t.events
					for _, f := range flows {
						t.digest.add(uint64(f.Bytes), uint64(f.FCT), uint64(f.Timeouts))
						t.timeouts += f.Timeouts
						switch {
						case !f.Done:
							res.Unfinished++
						case f.Query:
							res.QueryFCT.AddTime(f.FCT)
						default:
							res.BgFCT[wl.BucketIndex(f.Bytes)].AddTime(f.FCT)
						}
					}
					t.flows, t.unfinished = res.Flows, res.Unfinished
					if proto == exp.TFC && res.Unfinished > 0 {
						t.fail(fmt.Sprintf("tfc web search: %d flows unfinished", res.Unfinished))
					}
				})
				r.tracedOnly("bench", "rtxBytes", func() { t.rtxBytes = rtxBytes(e.Hosts, res.Flows) })
				results = append(results, res)
			})
		})
	}
	r.phase(&r.export, "export", func() {
		r.span("exp", "format", func() {
			last := r.trials[len(r.trials)-1]
			r.writeFile(last, "websearch.txt", exp.FormatBenchmark("web search (18x20 leaf-spine)", results))
			if err := exp.SaveBenchmarkCSV(r.dir, results); err != nil {
				last.fail(err.Error())
			}
		})
	})
}

// runAllQuick is what a user types: the claims check (`tfcsim verify`) as
// the set-up phase, then `tfcsim all` at quick scale with CSV export and
// every report written to a file. Many small trials: facade, runner, every
// exp runner, faults, formatting, per-trial build and GC.
func runAllQuick(r *rep, sz *sizes, seed int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	opts := tfcsim.RunOptions{Scale: tfcsim.Quick, Seed: seed, Parallelism: 1, CSVDir: r.dir}
	var (
		results []*tfcsim.Result
		err     error
	)
	if sz.runAllOnly == nil {
		r.phase(&r.setup, "setup", func() {
			for _, c := range tfcsim.Claims() {
				r.span("tfcsim", "claim:"+c.ID, func() {
					r.claims++
					if _, ok := c.Check(); !ok {
						r.claimsFailed++
					}
				})
			}
		})
	}
	// The facade gives no packet-hop count, so the run phase has no trial
	// to charge mallocs to; time it directly.
	r.phase(&r.run, "run", func() {
		switch {
		case sz.runAllOnly != nil || r.tr != nil:
			// The traced pass unrolls RunAll so each Experiment.Run gets
			// its own span; the loop is RunAll's body.
			names := sz.runAllOnly
			if names == nil {
				for _, e := range tfcsim.Experiments() {
					names = append(names, e.Name)
				}
			}
			for _, name := range names {
				e, _ := tfcsim.Find(name)
				r.span("tfcsim", "Experiment.Run:"+name, func() {
					var res *tfcsim.Result
					if res, err = e.Run(ctx, opts); err == nil {
						results = append(results, res)
					}
				})
				if err != nil {
					break
				}
			}
		default:
			results, err = tfcsim.RunAll(ctx, opts)
		}
	})
	for _, res := range results {
		for _, m := range res.Trials {
			r.trial(fmt.Sprintf("%s#%d", res.Name, m.Index), "", func(t *trial) {
				t.events, t.runWall = m.Events, m.Wall
				if m.Err != nil {
					t.fail(m.Err.Error())
				}
			})
		}
		er := expResult{name: res.Name, wall: res.Wall}
		for _, m := range res.Trials {
			er.trials += m.Wall
		}
		r.results = append(r.results, er)
	}
	if err != nil {
		r.trial("run-all", "", func(t *trial) { t.fail(err.Error()) })
	}
	r.phase(&r.export, "export", func() {
		r.span("exp", "format", func() {
			last := r.trials[len(r.trials)-1]
			for _, res := range results {
				last.digest.addString(res.Text)
				r.writeFile(last, res.Name+".txt", res.Text)
			}
		})
	})
}
