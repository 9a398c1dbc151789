package main

import (
	"fmt"
	"io"
	"strings"
)

// writeLedger renders LEDGER.md from two full runs of one commit: every
// end-to-end metric per workload with both runs side by side, the
// headline ratios the roadmap asks about, and every per-layer metric.
func writeLedger(w io.Writer, files []string, a, b *document, rows []row) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# tfcsim performance ledger\n\n")
	p("Rendered by `go run ./benchmark -ledger %s %s`; do not edit by hand.\n", files[0], files[1])
	p("A and B are two full passes (`go run ./benchmark -seed %d -traced`) of the same commit on the same box;\n", a.Seed)
	p("their agreement under `-compare` is what makes either usable as a baseline. The two passes are taken back to back\n")
	p("and committed as they came: a pair is not re-run until it agrees. No gain is claimed here.\n\n")
	p("| | A | B |\n|---|---|---|\n")
	p("| commit | %s | %s |\n| cpu | %s | %s |\n", a.Env.Commit, b.Env.Commit, a.Env.CPU, b.Env.CPU)
	p("| nproc / GOMAXPROCS | %d / %d | %d / %d |\n| go | %s | %s |\n", a.Env.NProc, a.Env.GOMAXPROCS, b.Env.NProc, b.Env.GOMAXPROCS, a.Env.Go, b.Env.Go)
	p("| seed, seconds | %d, %g | %d, %g |\n\n", a.Seed, a.Seconds, b.Seed, b.Seconds)

	p("## Headlines\n\n")
	med := func(d *document, wl, metric string) float64 { return d.find(wl).EndToEnd[metric].Median }
	layer := func(d *document, wl, metric string) float64 { return d.find(wl).PerLayer[metric].Value }
	both := func(f func(d *document) float64) string {
		return fmt.Sprintf("%s / %s", fmtValue(f(a)), fmtValue(f(b)))
	}
	mev := func(d *document, wl string) float64 {
		return float64(d.find(wl).SimEvents) / med(d, wl, "run_s") / 1e6
	}
	p("| question | A / B |\n|---|---|\n")
	p("| dumbbell_tcp, Mevents per host-second | %s |\n", both(func(d *document) float64 { return mev(d, "dumbbell_tcp") }))
	p("| fattree_k16_tfc, Mevents per host-second | %s |\n", both(func(d *document) float64 { return mev(d, "fattree_k16_tfc") }))
	p("| dumbbell-vs-fat-tree gap, pkt_hops_per_s ratio | %s |\n", both(func(d *document) float64 {
		return med(d, "dumbbell_tcp", "pkt_hops_per_s") / med(d, "fattree_k16_tfc", "pkt_hops_per_s")
	}))
	p("| forwarding probe, many_dst / one_dst ns per hop | %s |\n", both(func(d *document) float64 {
		return layer(d, "fattree_k16_tfc", "netsim.probe.forward_ns_per_hop.many_dst") /
			layer(d, "fattree_k16_tfc", "netsim.probe.forward_ns_per_hop.one_dst")
	}))
	p("| build share of the k=16 trial, setup_s / total_s | %s |\n", both(func(d *document) float64 {
		return med(d, "fattree_k16_tfc", "setup_s") / med(d, "fattree_k16_tfc", "total_s")
	}))
	p("| ... of which routing again on the finished network, netsim.route_s / setup_s | %s |\n", both(func(d *document) float64 {
		return layer(d, "fattree_k16_tfc", "netsim.route_s") / med(d, "fattree_k16_tfc", "setup_s")
	}))
	p("| Shards=2 speed-up, run_s sequential / sharded | %s |\n", both(func(d *document) float64 {
		return med(d, "fattree_k16_tfc", "run_s") / med(d, "fattree_k16_tfc_shards2", "run_s")
	}))
	p("| ... with sim.group.barrier_frac | %s |\n", both(func(d *document) float64 { return layer(d, "fattree_k16_tfc_shards2", "sim.group.barrier_frac") }))
	p("| ... and sim.group.shard_imbalance | %s |\n", both(func(d *document) float64 { return layer(d, "fattree_k16_tfc_shards2", "sim.group.shard_imbalance") }))
	p("| telemetry.on_delta_frac (dumbbell, telemetry only) | %s |\n", both(func(d *document) float64 { return layer(d, "dumbbell_tcp_observed", "telemetry.on_delta_frac") }))
	p("| obs.on_delta_frac (full observatory on top) | %s |\n", both(func(d *document) float64 { return layer(d, "dumbbell_tcp_observed", "obs.on_delta_frac") }))
	p("| largest bench.trace_overhead_frac | %s |\n\n", both(func(d *document) float64 {
		worst := 0.0
		for _, rp := range d.Workloads {
			if v := rp.PerLayer["bench.trace_overhead_frac"].Value; v > worst {
				worst = v
			}
		}
		return worst
	}))

	p("## End-to-end metrics\n\n")
	p("Median over the timed reps of one process; spread is (max-min)/median (`n=1`: one reading per process, none to show).\n")
	p("`bound` is the share of the parent's median a later change may lose; `unresolved` means a run's own spread exceeds it.\n\n")
	p("| workload | metric | unit | A | spread | B | spread | B/A | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n")
	var open []string
	for _, r := range rows {
		if r.bound == "=" {
			continue
		}
		ratio := ""
		if r.a != 0 {
			ratio = fmt.Sprintf("%.3f", r.b/r.a)
		}
		p("| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n", r.workload, r.metric, r.unit,
			fmtValue(r.a), r.spreadA, fmtValue(r.b), r.spreadB, ratio, r.bound, r.verdict)
		if r.verdict == unresolved {
			open = append(open, fmt.Sprintf("%s/%s (spread %s / %s, bound %s)", r.workload, r.metric, r.spreadA, r.spreadB, r.bound))
		}
	}
	p("\nViolations under `-compare` (B worse than A past the bound, or an exact count or digest differs): %d.\n", violations(rows))
	p("\nUnresolved timings: ")
	if len(open) == 0 {
		p("none.\n")
	} else {
		p("%s.\n", strings.Join(open, "; "))
	}
	p("\n| workload | trials | reps | sim_events | sim_digest A | sim_digest B |\n|---|---|---|---|---|---|\n")
	for _, ra := range a.Workloads {
		rb := b.find(ra.Workload)
		p("| %s | %d | %d | %d | %s | %s |\n", ra.Workload, ra.Trials, ra.Reps, ra.SimEvents, ra.SimDigest, rb.SimDigest)
	}

	p("\n## Per-layer metrics\n\n")
	p("From the traced pass (one rep, spans around the calls into each layer). Cells are A / B; `.` is 0: the workload\n")
	p("does not exercise that layer. **[exact]** counts repeat bit-for-bit for a seed. Columns:")
	for i, ra := range a.Workloads {
		p(" %d=%s", i+1, ra.Workload)
	}
	p(".\n\n| metric | unit |")
	for i := range a.Workloads {
		p(" %d |", i+1)
	}
	p("\n|---|---|%s\n", strings.Repeat("---|", len(a.Workloads)))
	for _, ms := range perLayer {
		name := ms.name
		if ms.exact {
			name += " **[exact]**"
		}
		p("| %s | %s |", name, ms.unit)
		for _, ra := range a.Workloads {
			va, vb := ra.PerLayer[ms.name].Value, b.find(ra.Workload).PerLayer[ms.name].Value
			switch {
			case va == 0 && vb == 0:
				p(" . |")
			case ms.exact && va == vb:
				p(" %s |", fmtValue(va))
			default:
				p(" %s / %s |", fmtValue(va), fmtValue(vb))
			}
		}
		p("\n")
	}
	return nil
}
