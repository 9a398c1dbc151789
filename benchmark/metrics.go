package main

import (
	"sort"
	"time"

	"tfcsim"
	"tfcsim/internal/transport"
)

// metricSpec names one metric. BENCHMARK.json declares the same names,
// units and directions; the self-test holds the two together.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// exact marks a count that repeats bit-for-bit for a seed: a change
	// meant only to speed the simulator must leave it untouched.
	exact bool
}

// gated are the end-to-end metrics BENCHMARK.json bounds: every workload
// reports each of them and none can read zero.
var gated = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "run_s", unit: "s", better: "lower"},
	{name: "total_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// reported are the end-to-end metrics printed beside the gated ones.
// They cannot be bounded as a share of the parent's median: the rate is
// undefined on run_all_quick (no packet-hop count crosses the facade),
// allocs_per_pkt_hop reads ~0 on the dumbbell, and the two failure counts
// are 0 on a healthy commit (they travel as `failed`/`correct`).
// -compare applies the bounds below to them.
var reported = []metricSpec{
	{name: "pkt_hops_per_s", unit: "1/s", better: "higher"},
	{name: "allocs_per_pkt_hop", unit: "count", better: "lower"},
	{name: "failed_trials", unit: "count", better: "lower"},
	{name: "claims_failed", unit: "count", better: "lower"},
}

// pkt_hops_per_s is run_s inverted over a fixed numerator, so -compare
// gives it run_s's bound from BENCHMARK.json.
const (
	allocsPerHopAbs  = 0.001 // allocs_per_pkt_hop may rise by this much...
	allocsPerHopFrac = 0.02  // ...or by this share, whichever is larger
)

// perLayer lists every per-layer metric in the order the ledger prints
// them. A metric reads 0 on a workload that does not exercise its layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	ms := []metricSpec{
		{name: "sim.events", unit: "count", better: "lower", exact: true},
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},
		{name: "sim.lane_frac", unit: "ratio", better: "higher", exact: true},
		{name: "sim.probe.lane_ns_per_event", unit: "ns", better: "lower"},
		{name: "sim.probe.heap_ns_per_event", unit: "ns", better: "lower"},
		{name: "sim.probe.timer_arm_stop_ns", unit: "ns", better: "lower"},
		{name: "sim.group.epochs", unit: "count", better: "lower", exact: true},
		{name: "sim.group.mail_msgs", unit: "count", better: "lower", exact: true},
		{name: "sim.group.shard_imbalance", unit: "ratio", better: "lower", exact: true},
		{name: "sim.group.barrier_frac", unit: "ratio", better: "lower"},
		{name: "netsim.pkt_hops", unit: "count", better: "lower", exact: true},
		{name: "netsim.drops", unit: "count", better: "lower", exact: true},
		{name: "netsim.max_queue_bytes", unit: "bytes", better: "lower", exact: true},
		{name: "netsim.route_s", unit: "s", better: "lower"},
		{name: "netsim.partition_s", unit: "s", better: "lower"},
		{name: "netsim.probe.forward_ns_per_hop.one_dst", unit: "ns", better: "lower"},
		{name: "netsim.probe.forward_ns_per_hop.many_dst", unit: "ns", better: "lower"},
		{name: "exp.build_s", unit: "s", better: "lower"},
		{name: "exp.collect_s", unit: "s", better: "lower"},
		{name: "exp.format_s", unit: "s", better: "lower"},
	}
	for _, p := range transport.Names() {
		l := layerOf(p)
		ms = append(ms,
			metricSpec{name: l + ".ns_per_pkt_hop", unit: "ns", better: "lower"},
			metricSpec{name: l + ".timeouts", unit: "count", better: "lower", exact: true},
			metricSpec{name: l + ".rtx_bytes", unit: "bytes", better: "lower", exact: true},
			metricSpec{name: l + ".drops", unit: "count", better: "lower", exact: true})
	}
	ms = append(ms,
		metricSpec{name: "workload.dial_s", unit: "s", better: "lower"},
		metricSpec{name: "workload.flows", unit: "count", better: "lower", exact: true},
		metricSpec{name: "workload.flows_unfinished", unit: "count", better: "lower", exact: true},
		metricSpec{name: "runner.trials", unit: "count", better: "lower", exact: true},
		metricSpec{name: "runner.overhead_s", unit: "s", better: "lower"},
		metricSpec{name: "tfcsim.verify_s", unit: "s", better: "lower"})
	for _, e := range tfcsim.Experiments() {
		ms = append(ms, metricSpec{name: "tfcsim.exp_s." + e.Name, unit: "s", better: "lower"})
	}
	return append(ms,
		metricSpec{name: "telemetry.on_delta_frac", unit: "ratio", better: "lower"},
		metricSpec{name: "telemetry.write_s", unit: "s", better: "lower"},
		metricSpec{name: "telemetry.trace_bytes", unit: "bytes", better: "lower", exact: true},
		metricSpec{name: "telemetry.metrics_bytes", unit: "bytes", better: "lower", exact: true},
		metricSpec{name: "obs.on_delta_frac", unit: "ratio", better: "lower"},
		metricSpec{name: "obs.spans", unit: "count", better: "lower", exact: true},
		metricSpec{name: "obs.finish_s", unit: "s", better: "lower"},
		metricSpec{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"})
}

// stat summarises one end-to-end metric over a workload's timed reps.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// Spread is (max-min)/median. Past a metric's bound, two such sets
	// cannot tell a regression from noise and -compare reports
	// "unresolved". A single sample (peak_rss_mb) has none to show.
	Spread float64 `json:"spread"`
}

func newStat(unit string, vs []float64) stat {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	st := stat{Unit: unit, Median: (s[(n-1)/2] + s[n/2]) / 2, Min: s[0], Max: s[n-1], N: n}
	if st.Median != 0 {
		st.Spread = (st.Max - st.Min) / st.Median
	}
	return st
}

// layerValue is one per-layer metric of the traced pass.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Exact bool    `json:"exact,omitempty"`
}

// report is everything one workload's process measured.
type report struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Reps         int      `json:"reps"`
	Trials       int      `json:"trials"`        // per rep
	FailedTrials int      `json:"failed_trials"` // over the timed reps
	Claims       int      `json:"claims,omitempty"`
	ClaimsFailed int      `json:"claims_failed"`
	Failures     []string `json:"failures,omitempty"`
	SimEvents    uint64   `json:"sim_events"`
	SimDigest    string   `json:"sim_digest"`
	// EndToEnd comes from the untraced pass only; PerLayer from the
	// traced one.
	EndToEnd map[string]stat       `json:"end_to_end,omitempty"`
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
}

func seconds(d time.Duration) float64 { return float64(d) / 1e9 }

// endToEnd reduces the timed reps to the end-to-end metrics.
func endToEnd(reps []*rep, peakRSS float64) map[string]stat {
	col := func(f func(r *rep) float64) []float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return vs
	}
	out := map[string]stat{
		"setup_s":     newStat("s", col(func(r *rep) float64 { return seconds(r.setup) })),
		"run_s":       newStat("s", col(func(r *rep) float64 { return seconds(r.run) })),
		"total_s":     newStat("s", col(func(r *rep) float64 { return seconds(r.setup + r.run + r.export) })),
		"alloc_mb":    newStat("MB", col(func(r *rep) float64 { return float64(r.allocBytes) / 1e6 })),
		"peak_rss_mb": newStat("MB", []float64{peakRSS}),
		"failed_trials": newStat("count", col(func(r *rep) float64 {
			return float64(r.failedTrials())
		})),
	}
	if reps[0].hops() > 0 {
		out["pkt_hops_per_s"] = newStat("1/s", col(func(r *rep) float64 {
			return float64(r.hops()) / seconds(r.run)
		}))
		out["allocs_per_pkt_hop"] = newStat("count", col(func(r *rep) float64 {
			return float64(r.runMallocs) / float64(r.hops())
		}))
	}
	if reps[0].claims > 0 {
		out["claims_failed"] = newStat("count", col(func(r *rep) float64 { return float64(r.claimsFailed) }))
	}
	return out
}

// layerMetrics reduces one traced rep and its spans to the per-layer
// metrics the rep itself can give; probes and cross-run deltas are added
// by the caller.
func layerMetrics(r *rep, spans []span) map[string]float64 {
	self := layerSelf(spans)
	sec := func(key string) float64 { return float64(self[key]) / 1e9 }
	m := make(map[string]float64)

	runNs, hops := make(map[string]float64), make(map[string]float64) // per transport layer
	var heap, lane uint64
	var maxQ int
	var drops int64
	for _, t := range r.trials {
		heap += t.heapDisp
		lane += t.laneDisp
		drops += t.drops
		if t.maxQueue > maxQ {
			maxQ = t.maxQueue
		}
		m["workload.flows"] += float64(t.flows)
		m["workload.flows_unfinished"] += float64(t.unfinished)
		m["telemetry.trace_bytes"] += float64(t.traceBytes)
		m["telemetry.metrics_bytes"] += float64(t.metricsBytes)
		m["obs.spans"] += float64(t.obsSpans)
		if t.proto != "" {
			l := layerOf(t.proto)
			m[l+".timeouts"] += float64(t.timeouts)
			m[l+".rtx_bytes"] += float64(t.rtxBytes)
			m[l+".drops"] += float64(t.drops)
			runNs[l] += float64(t.runWall)
			hops[l] += float64(t.hops)
		}
		if g := t.group; g != nil {
			m["sim.group.epochs"] += float64(g.Epochs)
			m["sim.group.mail_msgs"] += float64(g.MailDelivered)
			var maxEv, sumEv uint64
			var barrier int64
			for _, sh := range g.PerShard {
				sumEv += sh.Executed
				if sh.Executed > maxEv {
					maxEv = sh.Executed
				}
				barrier += sh.BarrierNs
			}
			if sumEv > 0 {
				m["sim.group.shard_imbalance"] = float64(maxEv) * float64(len(g.PerShard)) / float64(sumEv)
			}
			if g.WindowNs > 0 {
				m["sim.group.barrier_frac"] = float64(barrier) / (float64(g.WindowNs) * float64(len(g.PerShard)))
			}
		}
	}
	for _, p := range transport.Names() {
		l := layerOf(p)
		if hops[l] > 0 {
			m[l+".ns_per_pkt_hop"] = runNs[l] / hops[l]
		}
	}
	m["sim.events"] = float64(r.events())
	if ev := r.events(); ev > 0 {
		m["sim.ns_per_event"] = float64(self["sim/RunUntil"]) / float64(ev)
	}
	if heap+lane > 0 {
		m["sim.lane_frac"] = float64(lane) / float64(heap+lane)
	}
	m["netsim.pkt_hops"] = float64(r.hops())
	m["netsim.drops"] = float64(drops)
	m["netsim.max_queue_bytes"] = float64(maxQ)
	m["netsim.route_s"] = sec("netsim/ComputeRoutes")
	// A builder's span includes the routing it does inside its own call;
	// netsim.route_s prices that routing again on the finished network.
	m["exp.build_s"] = sec("exp/build") + sec("netsim/build")
	m["exp.collect_s"] = sec("exp/collect")
	m["exp.format_s"] = sec("exp/format")
	m["workload.dial_s"] = sec("workload")
	m["telemetry.write_s"] = sec("telemetry/WriteFiles")
	m["obs.finish_s"] = sec("obs/FinishRun")
	m["runner.trials"] = float64(len(r.trials))
	for _, er := range r.results {
		m["tfcsim.exp_s."+er.name] = seconds(er.wall)
		m["runner.overhead_s"] += seconds(er.wall - er.trials)
	}
	if r.claims > 0 {
		m["tfcsim.verify_s"] = seconds(r.setup)
	}
	return m
}
