package tfcsim

import (
	"context"
	"fmt"
	"strings"

	"tfcsim/internal/exp"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
)

// Claim is one of the paper's falsifiable statements, encoded as an
// executable check at quick scale. `tfcsim verify` runs them all; the test
// suite asserts them too, but the CLI form lets a reader audit the
// reproduction without reading Go.
type Claim struct {
	ID        string
	Statement string // the paper's claim, paraphrased
	// Check runs the experiment and returns (evidence, ok).
	Check func() (string, bool)
}

// claimPool fans a claim's cells across cores while keeping every trial
// on seed 1 (the pre-pool serial schedule), so the evidence numbers the
// checks assert against are unchanged by parallel execution.
func claimPool() *runner.Pool { return (&runner.Pool{BaseSeed: 1}).Paired() }

// Claims returns the paper's headline claims as executable checks.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "zero-queueing",
			Statement: "TFC keeps near-zero queues where TCP fills the buffer and DCTCP holds ~K (Fig 8)",
			Check: func() (string, bool) {
				rs, err := exp.Sweep(context.Background(), claimPool(), nil,
					exp.PerProto(exp.QueueFairnessConfig{StartInterval: 40 * sim.Millisecond}, exp.AllProtos),
					exp.ProtoKey, exp.QueueFairness)
				if err != nil {
					return err.Error(), false
				}
				var tfc, dctcp, tcp *exp.QueueFairnessResult
				for _, r := range rs {
					switch r.Proto {
					case exp.TFC:
						tfc = r
					case exp.DCTCP:
						dctcp = r
					case exp.TCP:
						tcp = r
					}
				}
				ev := fmt.Sprintf("avg queue: tfc=%.1fKB dctcp=%.1fKB; max queue: dctcp=%.0fKB tcp=%.0fKB (buffer 256KB)",
					tfc.AvgQueue/1024, dctcp.AvgQueue/1024,
					float64(dctcp.MaxQueue)/1024, float64(tcp.MaxQueue)/1024)
				// TFC near zero; DCTCP bounded but above TFC; TCP fills the
				// buffer (a max-queue statement: its *average* is dragged
				// down by RTO stalls at short horizons).
				return ev, tfc.AvgQueue < 15<<10 &&
					tfc.AvgQueue < dctcp.AvgQueue && tcp.MaxQueue > 200<<10
			},
		},
		{
			ID:        "fast-convergence",
			Statement: "a new TFC flow reaches its fair share within ~2 RTTs (Fig 10)",
			Check: func() (string, bool) {
				cfg := exp.QueueFairnessConfig{StartInterval: 40 * sim.Millisecond}
				cfg.Proto = exp.TFC
				r := exp.QueueFairness(cfg)
				ev := fmt.Sprintf("flow 3 converged in %v (Jain %.3f)", r.ConvergeIn, r.JainIndex)
				return ev, r.ConvergeIn > 0 && r.ConvergeIn < 5*sim.Millisecond &&
					r.JainIndex > 0.95
			},
		},
		{
			ID:        "rare-loss-incast",
			Statement: "TFC completes high fan-in incast with zero loss and zero timeouts while TCP collapses (Figs 12, 15)",
			Check: func() (string, bool) {
				cfg := exp.IncastConfig{Rounds: 3}
				cfg.Proto = exp.TFC
				cfg.Senders = 80
				tfc := exp.Incast(cfg)
				cfg.Proto = exp.TCP
				tcp := exp.Incast(cfg)
				ev := fmt.Sprintf("tfc: %.0fMbps drops=%d TO=%d; tcp: %.0fMbps drops=%d TO=%d",
					tfc.Goodput/1e6, tfc.Drops, tfc.Timeouts,
					tcp.Goodput/1e6, tcp.Drops, tcp.Timeouts)
				return ev, tfc.Drops == 0 && tfc.Timeouts == 0 &&
					tfc.Goodput > 0.7e9 && tcp.Goodput < tfc.Goodput/2
			},
		},
		{
			ID:        "work-conserving",
			Statement: "the token adjustment reclaims bandwidth stranded by multi-bottleneck clamping (Fig 11, §4.5)",
			Check: func() (string, bool) {
				full := exp.WorkConserving(exp.WorkConservingConfig{Duration: 300 * sim.Millisecond})
				cfg := exp.WorkConservingConfig{Duration: 300 * sim.Millisecond}
				cfg.TFC.DisableAdjust = true
				abl := exp.WorkConserving(cfg)
				ev := fmt.Sprintf("downlink: full=%.0fMbps no-adjust=%.0fMbps",
					full.DownlinkGoodput/1e6, abl.DownlinkGoodput/1e6)
				return ev, full.DownlinkGoodput > 0.85e9 &&
					full.DownlinkGoodput > abl.DownlinkGoodput
			},
		},
		{
			ID:        "query-fct-tails",
			Statement: "TFC's query-flow FCT mean and tails sit far below TCP's RTO-bound tails (Fig 13)",
			Check: func() (string, bool) {
				rs, err := exp.Sweep(context.Background(), claimPool(), nil,
					exp.PerProto(exp.BenchmarkConfig{
						Duration: 150 * sim.Millisecond, QueryRate: 150, BgFlowRate: 250,
					}, []exp.Proto{exp.TFC, exp.TCP}),
					exp.ProtoKey, exp.Benchmark)
				if err != nil {
					return err.Error(), false
				}
				tfc, tcp := rs[0], rs[1]
				ev := fmt.Sprintf("mean: tfc=%.0fus tcp=%.0fus; p99.9: tfc=%.0fus tcp=%.0fus",
					tfc.QueryFCT.Mean(), tcp.QueryFCT.Mean(),
					tfc.QueryFCT.Percentile(99.9), tcp.QueryFCT.Percentile(99.9))
				return ev, tfc.QueryFCT.Mean() < tcp.QueryFCT.Mean() &&
					tfc.QueryFCT.Percentile(99.9) < tcp.QueryFCT.Percentile(99.9)
			},
		},
		{
			ID:        "rho0-knob",
			Statement: "goodput rises monotonically with rho0 while queues stay ~KB (Fig 14)",
			Check: func() (string, bool) {
				pts, err := exp.Sweep(context.Background(), claimPool(), nil,
					rho0Cells(exp.Rho0SweepConfig{Duration: 300 * sim.Millisecond}, 0.90, 1.00),
					rho0Key, exp.Rho0Sweep)
				if err != nil {
					return err.Error(), false
				}
				ev := fmt.Sprintf("rho0.90=%.0fMbps rho1.00=%.0fMbps (avgQ %.1fKB)",
					pts[0].Goodput/1e6, pts[1].Goodput/1e6, pts[1].AvgQ/1024)
				return ev, pts[0].Goodput < pts[1].Goodput && pts[1].AvgQ < 8<<10 &&
					pts[0].Drops == 0 && pts[1].Drops == 0
			},
		},
		{
			ID:        "delay-function",
			Statement: "the ACK delay function is what prevents loss when fair windows fall below one MSS (§4.6, A2)",
			Check: func() (string, bool) {
				cfg := exp.IncastConfig{Rounds: 2, BufBytes: 64 << 10}
				cfg.Proto = exp.TFC
				cfg.Senders = 80
				full := exp.Incast(cfg)
				cfg.TFC.DisableDelay = true
				abl := exp.Incast(cfg)
				ev := fmt.Sprintf("drops: full=%d ablated=%d", full.Drops, abl.Drops)
				return ev, full.Drops == 0 && abl.Drops > 0
			},
		},
		{
			ID:        "decoupling",
			Statement: "computing tokens from rtt_m instead of rtt_b feeds the queue back into itself (§4.4, A3)",
			Check: func() (string, bool) {
				mk := func(disable bool) *exp.QueueFairnessResult {
					cfg := exp.QueueFairnessConfig{StartInterval: 40 * sim.Millisecond}
					cfg.Proto = exp.TFC
					cfg.TFC.DisableDecouple = disable
					return exp.QueueFairness(cfg)
				}
				full, coupled := mk(false), mk(true)
				ev := fmt.Sprintf("avg queue: decoupled=%.1fKB coupled=%.1fKB",
					full.AvgQueue/1024, coupled.AvgQueue/1024)
				return ev, full.AvgQueue*2 < coupled.AvgQueue
			},
		},
		{
			ID:        "ne-accuracy",
			Statement: "the marked-packet count tracks the effective flows and excludes silent ones (Fig 7)",
			Check: func() (string, bool) {
				r := exp.NeAccuracy(exp.NeAccuracyConfig{Interval: 30 * sim.Millisecond})
				last := r.Points[len(r.Points)-1]
				ev := fmt.Sprintf("mean |err|=%.2f flows; Ne after all n1 off=%.2f", r.MeanAbsErr, last.Measured)
				return ev, r.MeanAbsErr < 2.5 && last.Measured < 7
			},
		},
		{
			ID:        "multipath",
			Statement: "TFC's per-port allocation composes with ECMP multipath fabrics (extension)",
			Check: func() (string, bool) {
				cfg := exp.PermutationConfig{Duration: 120 * sim.Millisecond}
				cfg.Proto = exp.TFC
				r := exp.Permutation(cfg)
				ev := fmt.Sprintf("fat-tree permutation: %.1fGbps, drops=%d, max fabric queue %dKB",
					r.AggGoodput/1e9, r.Drops, r.MaxQueue>>10)
				return ev, r.Drops == 0 && r.MaxQueue < 64<<10 && r.AggGoodput > 5e9
			},
		},
	}
}

// VerifyAll runs every claim and renders a report; ok is true only if all
// claims hold.
func VerifyAll() (string, bool) {
	var b strings.Builder
	all := true
	for _, c := range Claims() {
		ev, ok := c.Check()
		status := "PASS"
		if !ok {
			status = "FAIL"
			all = false
		}
		fmt.Fprintf(&b, "[%s] %-16s %s\n%18s evidence: %s\n", status, c.ID, c.Statement, "", ev)
	}
	return b.String(), all
}
