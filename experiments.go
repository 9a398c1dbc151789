package tfcsim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
	"tfcsim/internal/transport"
)

// Scale selects experiment fidelity: Quick runs in seconds (CI and
// benchmarks), Paper uses the paper's parameters (minutes of wall time for
// the large sweeps).
type Scale string

// Scales.
const (
	Quick Scale = "quick"
	Paper Scale = "paper"
)

// RunOptions parameterizes one experiment run. The zero value is valid:
// quick scale, seed 1, GOMAXPROCS-way parallelism, no CSV export.
type RunOptions struct {
	// Scale is the experiment fidelity (default Quick).
	Scale Scale
	// Seed is the run's seed; every trial of the run runs with it, so
	// results are a pure function of (experiment, Scale, Seed) —
	// Parallelism never changes the output. 0 means 1.
	Seed int64
	// Parallelism is the number of trials run concurrently; <= 0 means
	// runtime.GOMAXPROCS(0). Use 1 for strictly serial execution.
	Parallelism int
	// CSVDir, if non-empty, makes experiments that support raw data
	// export (fig06, fig08-10, fig12, fig13) write CSV files there.
	CSVDir string
	// Progress, if set, is called as each trial completes (serialized,
	// in completion order). It must not block.
	Progress func(ProgressEvent)
	// Telemetry, if set, instruments every trial of the run: virtual-time
	// metrics and Chrome trace events, merged in deterministic trial-key
	// order and written to the paths named in the options after the run
	// (empty paths skip the corresponding file). The collector is also
	// returned in Result.Telemetry. Nil (the default) disables
	// instrumentation entirely.
	Telemetry *telemetry.Options
	// Obs, if set, attaches the runtime observatory to the run: the live
	// introspection endpoint, causal packet spans, and the invariant
	// watchdogs (see internal/telemetry). Works with or without Telemetry — when
	// Telemetry is nil a silent collector is minted so the event stream is
	// live but no trace/metrics files are written. The observatory is a
	// pure observer: results stay byte-identical with it on or off.
	Obs *telemetry.Observatory
	// Protos, when non-empty, overrides the protocol list of every
	// experiment that compares protocols (fig08-10, fig12, fig13, fig15,
	// fig16, fattree, churn, robustness, credit-baseline). Each name must
	// be a registered transport. Experiments pinned to one protocol
	// (fig06, fig07, fig11, fig14, the ablations) ignore it.
	Protos []Proto
}

func (o RunOptions) withDefaults() (RunOptions, error) {
	if o.Scale == "" {
		o.Scale = Quick
	}
	if o.Scale != Quick && o.Scale != Paper {
		return o, fmt.Errorf("tfcsim: unknown scale %q (want %q or %q)", o.Scale, Quick, Paper)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	for _, p := range o.Protos {
		if _, err := transport.Lookup(string(p)); err != nil {
			return o, fmt.Errorf("tfcsim: %w", err)
		}
	}
	return o, nil
}

// ProgressEvent reports one completed trial of a running experiment.
type ProgressEvent struct {
	Experiment string
	Trial      runner.Metrics
}

// Result is one experiment's outcome: the rendered text the CLI prints,
// the structured per-point data behind it, and execution metrics.
type Result struct {
	Name   string
	Figure string
	Scale  Scale
	Seed   int64
	// Text is the rendered tables, identical for any Parallelism.
	Text string
	// Data is the experiment's typed payload: []exp.IncastPoint for the
	// incast sweeps, []*exp.QueueFairnessResult for fig08-10,
	// []*exp.BenchmarkResult for fig13/fig16, []exp.Rho0Point for fig14,
	// and so on per experiment.
	Data any
	// Trials holds per-trial metrics (wall time, events, seed), sorted
	// by trial index. Sweeps that submit several batches repeat indexes.
	Trials []runner.Metrics
	// Events is the total simulator event count across all trials.
	Events uint64
	// Wall is the experiment's total wall-clock time.
	Wall time.Duration
	// Telemetry is the run's collector (nil unless RunOptions.Telemetry
	// was set); its files have already been written by Run.
	Telemetry *telemetry.Collector
}

// runCtx is what a registry entry's run function gets to work with: the
// resolved options plus the trial pool wired for metrics/progress.
type runCtx struct {
	scale  Scale
	csvDir string
	pool   *runner.Pool
	tel    *telemetry.Collector // nil when telemetry is off
	protos []exp.Proto          // RunOptions.Protos override (validated)
}

func (rc *runCtx) paper() bool { return rc.scale == Paper }

// protoList resolves an experiment's protocol matrix: the run-level
// Protos override when set, otherwise the experiment's default.
func (rc *runCtx) protoList(def []exp.Proto) []exp.Proto {
	if len(rc.protos) > 0 {
		return rc.protos
	}
	return def
}

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	Name   string // registry key, e.g. "fig12"
	Figure string // paper figure reference
	Desc   string
	run    func(ctx context.Context, rc *runCtx) (data any, text string, err error)
}

// Run executes the experiment. Trials fan out over opts.Parallelism
// workers, every one with opts.Seed, so cells that differ only in protocol
// or ablation share a workload and a fault timing, and a Protos subset
// reproduces the full run's rows. The output is byte-identical for any
// parallelism because a trial's seed is the run's and its position is its
// index. Cancelling ctx stops the run after in-flight trials finish.
func (e Experiment) Run(ctx context.Context, opts RunOptions) (*Result, error) {
	if e.run == nil {
		return nil, fmt.Errorf("tfcsim: experiment %q has no runner", e.Name)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &Result{Name: e.Name, Figure: e.Figure, Scale: opts.Scale, Seed: opts.Seed}
	pool := &runner.Pool{
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
		OnDone: func(m runner.Metrics) {
			res.Trials = append(res.Trials, m) // serialized by the pool
			if opts.Progress != nil {
				opts.Progress(ProgressEvent{Experiment: e.Name, Trial: m})
			}
		},
	}
	rc := &runCtx{scale: opts.Scale, csvDir: opts.CSVDir, pool: pool, protos: opts.Protos}
	if opts.Telemetry != nil {
		rc.tel = telemetry.NewCollector(*opts.Telemetry)
		res.Telemetry = rc.tel
	} else if opts.Obs != nil {
		// The observatory's parts live on telemetry trials: mint a silent
		// collector (no output paths, so WriteFiles is a no-op) purely to
		// carry them, with the smallest trace ring — nothing can read it.
		rc.tel = telemetry.NewCollector(telemetry.Options{RingCap: 1})
	}
	opts.Obs.Attach(e.Name, rc.tel)
	start := time.Now() //tfcvet:allow wallclock — Result.Wall reports real elapsed time; it never feeds simulation state or CSV data
	data, text, err := e.run(ctx, rc)
	if err != nil {
		return nil, fmt.Errorf("tfcsim: %s: %w", e.Name, err)
	}
	if err := rc.tel.WriteFiles(); err != nil {
		return nil, fmt.Errorf("tfcsim: %s: telemetry: %w", e.Name, err)
	}
	opts.Obs.FinishRun(e.Name)
	res.Wall = time.Since(start) //tfcvet:allow wallclock — Result.Wall reports real elapsed time; it never feeds simulation state or CSV data
	res.Data = data
	res.Text = text
	sort.SliceStable(res.Trials, func(i, j int) bool {
		return res.Trials[i].Index < res.Trials[j].Index
	})
	for _, m := range res.Trials {
		res.Events += m.Events
	}
	return res, nil
}

var registry = []Experiment{
	{
		Name: "fig06", Figure: "Fig 6",
		Desc: "accuracy of measured rtt_b vs reference RTT (CDF summary)",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.RTTAccuracyConfig{}
			if rc.paper() {
				cfg.Duration = 20 * sim.Second
				cfg.Window = sim.Second
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, []exp.RTTAccuracyConfig{cfg},
				func(exp.RTTAccuracyConfig) string { return "loaded" }, exp.RTTAccuracy)
			if err != nil {
				return nil, "", err
			}
			if rc.csvDir != "" {
				if err := exp.SaveRTTAccuracyCSV(rc.csvDir, rs[0]); err != nil {
					return nil, "", err
				}
			}
			return rs[0], rs[0].String(), nil
		},
	},
	{
		Name: "fig07", Figure: "Fig 7",
		Desc: "accuracy of Ne with inactive flows (n2=5 persistent + n1 on-off)",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.NeAccuracyConfig{}
			if rc.paper() {
				cfg.Interval = sim.Second
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, []exp.NeAccuracyConfig{cfg},
				func(exp.NeAccuracyConfig) string { return "ne-accuracy" }, exp.NeAccuracy)
			if err != nil {
				return nil, "", err
			}
			return rs[0], rs[0].String(), nil
		},
	},
	{
		Name: "fig08-10", Figure: "Figs 8, 9, 10",
		Desc: "queue length, goodput/fairness and convergence, 4 staggered flows -> H3, TFC vs DCTCP vs TCP",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.QueueFairnessConfig{}
			if rc.paper() {
				cfg.StartInterval = 3 * sim.Second
				cfg.Tail = 3 * sim.Second
				cfg.GoodputSample = 20 * sim.Millisecond
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, exp.PerProto(cfg, rc.protoList(exp.AllProtos)),
				exp.ProtoKey, exp.QueueFairness)
			if err != nil {
				return nil, "", err
			}
			if rc.csvDir != "" {
				if err := exp.SaveQueueFairnessCSV(rc.csvDir, rs); err != nil {
					return nil, "", err
				}
			}
			return rs, exp.FormatQueueFairness(rs), nil
		},
	},
	{
		Name: "fig11", Figure: "Fig 11",
		Desc: "work conserving on the Fig 5 multi-bottleneck topology (+ A1 ablation)",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.WorkConservingConfig{}
			if rc.paper() {
				cfg.Duration = 20 * sim.Second
			}
			cells := []exp.WorkConservingConfig{cfg, cfg}
			cells[1].TFC.DisableAdjust = true
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, cells,
				func(c exp.WorkConservingConfig) string { return variant(c.TFC.DisableAdjust, "full", "no-adjust") },
				exp.WorkConserving)
			if err != nil {
				return nil, "", err
			}
			return rs, exp.FormatWorkConserving(rs[0], rs[1]), nil
		},
	},
	{
		Name: "fig12", Figure: "Fig 12",
		Desc: "testbed incast: goodput and queue vs number of senders (1G, 256KB blocks)",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.IncastConfig{Rounds: 4}
			senders := []int{10, 40, 70, 100}
			if rc.paper() {
				cfg.Rounds = 100
				senders = []int{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
			}
			pts, err := exp.Sweep(ctx, rc.pool, rc.tel,
				exp.IncastGrid(cfg, rc.protoList(exp.AllProtos), senders), exp.IncastKey, exp.Incast)
			if err != nil {
				return nil, "", err
			}
			if rc.csvDir != "" {
				if err := exp.SaveIncastCSV(rc.csvDir, "fig12_incast.csv", pts); err != nil {
					return nil, "", err
				}
			}
			return pts, exp.FormatIncast("Fig 12 — testbed incast (1 Gbps, 256 KB blocks)", pts), nil
		},
	},
	{
		Name: "fig13", Figure: "Fig 13",
		Desc: "testbed web-search benchmark: query and background FCT, TFC vs DCTCP vs TCP",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.BenchmarkConfig{}
			if rc.paper() {
				cfg.Duration = 2 * sim.Second
				cfg.QueryRate = 300
				cfg.BgFlowRate = 500
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, exp.PerProto(cfg, rc.protoList(exp.AllProtos)),
				exp.ProtoKey, exp.Benchmark)
			if err != nil {
				return nil, "", err
			}
			if rc.csvDir != "" {
				if err := exp.SaveBenchmarkCSV(rc.csvDir, rs); err != nil {
					return nil, "", err
				}
			}
			return rs, exp.FormatBenchmark("Fig 13 — testbed benchmark", rs), nil
		},
	},
	{
		Name: "fig14", Figure: "Fig 14",
		Desc: "impact of rho0: goodput and queue for rho0 in 0.90..1.00",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.Rho0SweepConfig{}
			if rc.paper() {
				cfg.Duration = 2 * sim.Second
			}
			pts, err := exp.Sweep(ctx, rc.pool, rc.tel, rho0Cells(cfg, 0.90, 0.92, 0.94, 0.96, 0.98, 1.00),
				rho0Key, exp.Rho0Sweep)
			if err != nil {
				return nil, "", err
			}
			return pts, exp.FormatRho0Sweep(pts), nil
		},
	},
	{
		Name: "fig15", Figure: "Fig 15",
		Desc: "large-scale incast (10G): throughput and max timeouts/block vs senders, TFC vs TCP",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			var b strings.Builder
			blocks := []int64{64 << 10, 256 << 10}
			senders := []int{100, 300}
			rounds := 3
			if rc.paper() {
				blocks = []int64{64 << 10, 128 << 10, 256 << 10}
				senders = []int{50, 100, 200, 300, 400}
				rounds = 20
			}
			var all []exp.IncastPoint
			for _, blk := range blocks {
				cfg := exp.IncastConfig{
					Rate: 10 * netsim.Gbps, BufBytes: 512 << 10,
					BlockBytes: blk, Rounds: rounds,
				}
				pts, err := exp.Sweep(ctx, rc.pool, rc.tel,
					exp.IncastGrid(cfg, rc.protoList([]exp.Proto{exp.TFC, exp.TCP}), senders),
					func(c exp.IncastConfig) string { return fmt.Sprintf("b%dK/", blk>>10) + exp.IncastKey(c) },
					exp.Incast)
				if err != nil {
					return nil, "", err
				}
				all = append(all, pts...)
				b.WriteString(exp.FormatIncast(
					fmt.Sprintf("Fig 15 — large-scale incast (%dKB blocks)", blk>>10), pts))
				b.WriteString("\n")
			}
			return all, b.String(), nil
		},
	},
	{
		Name: "fig16", Figure: "Fig 16",
		Desc: "large-scale web-search benchmark (leaf-spine): query and background FCT",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.BenchmarkConfig{BufBytes: 512 << 10}
			protos := rc.protoList([]exp.Proto{exp.TFC, exp.TCP})
			if rc.paper() {
				cfg.Racks, cfg.PerRack = 18, 20
				cfg.Duration = 500 * sim.Millisecond
				cfg.QueryRate = 40
				cfg.BgFlowRate = 2000
				protos = rc.protoList(exp.AllProtos)
			} else {
				cfg.Racks, cfg.PerRack = 6, 6
				cfg.Duration = 150 * sim.Millisecond
				cfg.QueryRate = 100
				cfg.BgFlowRate = 300
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, exp.PerProto(cfg, protos), exp.ProtoKey, exp.Benchmark)
			if err != nil {
				return nil, "", err
			}
			return rs, exp.FormatBenchmark("Fig 16 — large-scale benchmark", rs), nil
		},
	},
	{
		Name: "fattree", Figure: "extension (§4.3 multi-rooted trees)",
		Desc: "k-ary fat-tree cross-pod permutation over ECMP: TFC vs TCP fabric queues",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.PermutationConfig{Duration: 150 * sim.Millisecond}
			if rc.paper() {
				cfg.K = 8
				cfg.Duration = 300 * sim.Millisecond
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel,
				exp.PerProto(cfg, rc.protoList([]exp.Proto{exp.TFC, exp.TCP})), exp.ProtoKey, exp.Permutation)
			if err != nil {
				return nil, "", err
			}
			return rs, exp.FormatPermutation(rs), nil
		},
	},
	{
		Name: "churn", Figure: "extension (§2 on-off flows)",
		Desc: "Storm-style on-off flows: silent-share reclamation and burst-free resume",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.ChurnConfig{}
			if rc.paper() {
				cfg.Duration = 2 * sim.Second
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, exp.PerProto(cfg, rc.protoList(exp.AllProtos)),
				exp.ProtoKey, exp.Churn)
			if err != nil {
				return nil, "", err
			}
			return rs, exp.FormatChurn(rs), nil
		},
	},
	{
		Name: "robustness", Figure: "extension (§4 robustness mechanisms)",
		Desc: "failure recovery: bottleneck blackouts (5/50/500ms) and 1% bursty loss, TFC vs DCTCP vs TCP",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.RobustnessConfig{}
			if rc.paper() {
				cfg.Tail = 2 * sim.Second
			}
			var cells []exp.RobustnessConfig
			for _, sc := range exp.DefaultScenarios {
				cfg.FaultScenario = sc
				cells = append(cells, exp.PerProto(cfg, rc.protoList(exp.AllProtos))...)
			}
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, cells,
				func(c exp.RobustnessConfig) string { return c.Name + "-" + string(c.Proto) }, exp.Robustness)
			if err != nil {
				return nil, "", err
			}
			return rs, exp.FormatRobustness(rs), nil
		},
	},
	{
		Name: "credit-baseline", Figure: "extension (§7 credit-based flow control)",
		Desc: "TFC vs an ExpressPass-style receiver-driven credit transport on incast",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.IncastConfig{BufBytes: 64 << 10, Rounds: 4}
			senders := []int{20, 60}
			if rc.paper() {
				cfg.Rounds = 50
				senders = []int{10, 40, 70, 100}
			}
			pts, err := exp.Sweep(ctx, rc.pool, rc.tel,
				exp.IncastGrid(cfg, rc.protoList([]exp.Proto{exp.TFC, exp.CREDIT}), senders), exp.IncastKey, exp.Incast)
			if err != nil {
				return nil, "", err
			}
			text := exp.FormatIncast(
				"Credit baseline — incast, 64KB buffer: TFC (switch windows) vs receiver-driven credits", pts) +
				"both credit-derived designs complete fan-in without data loss; they differ in control-plane cost (per-packet credits vs per-round window stamps)\n"
			return pts, text, nil
		},
	},
	{
		Name: "ablation-delay", Figure: "design §4.6 (A2)",
		Desc: "incast with the ACK delay function disabled: drops appear at high fan-in",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.IncastConfig{Rounds: 3, BufBytes: 64 << 10}
			if rc.paper() {
				cfg.Rounds = 20
			}
			cfg.Proto = exp.TFC
			cfg.Senders = 80
			cells := []exp.IncastConfig{cfg, cfg}
			cells[1].TFC.DisableDelay = true
			pts, err := exp.Sweep(ctx, rc.pool, rc.tel, cells,
				func(c exp.IncastConfig) string { return variant(c.TFC.DisableDelay, "full", "no-delay") },
				exp.Incast)
			if err != nil {
				return nil, "", err
			}
			text := exp.FormatIncast("Ablation A2 — delay function off (80 senders, 64KB buffer)", pts) +
				"row 1 = full TFC, row 2 = DisableDelay\n"
			return pts, text, nil
		},
	},
	{
		Name: "ablation-decouple", Figure: "design §4.4 (A3)",
		Desc: "rtt_b/rtt_m coupling: tokens computed from rtt_m inflate queues",
		run: func(ctx context.Context, rc *runCtx) (any, string, error) {
			cfg := exp.QueueFairnessConfig{}
			if rc.paper() {
				cfg.StartInterval = sim.Second
			}
			cfg.Proto = exp.TFC
			cells := []exp.QueueFairnessConfig{cfg, cfg}
			cells[1].TFC.DisableDecouple = true
			rs, err := exp.Sweep(ctx, rc.pool, rc.tel, cells,
				func(c exp.QueueFairnessConfig) string { return variant(c.TFC.DisableDecouple, "decoupled", "coupled") },
				exp.QueueFairness)
			if err != nil {
				return nil, "", err
			}
			text := "Ablation A3 — row 1 = decoupled (full TFC), row 2 = coupled (tokens from rtt_m)\n" +
				exp.FormatQueueFairness(rs)
			return rs, text, nil
		},
	},
}

// variant names one side of a paired ablation: off when the mechanism is
// intact, on when it is disabled.
func variant(disabled bool, off, on string) string {
	if disabled {
		return on
	}
	return off
}

// rho0Cells returns one Fig 14 cell per rho0 value.
func rho0Cells(base exp.Rho0SweepConfig, rhos ...float64) []exp.Rho0SweepConfig {
	cells := make([]exp.Rho0SweepConfig, len(rhos))
	for i, rho := range rhos {
		cells[i] = base
		cells[i].TFC.Rho0 = rho
	}
	return cells
}

func rho0Key(c exp.Rho0SweepConfig) string { return fmt.Sprintf("rho%.2f", c.TFC.Rho0) }

// Experiments lists the available experiments sorted by name.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns the experiment registered under name.
func Find(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll runs every registered experiment (in Experiments() order) with
// the same options and returns their results. On error — including ctx
// cancellation — it returns the results completed so far along with the
// error.
func RunAll(ctx context.Context, opts RunOptions) ([]*Result, error) {
	var out []*Result
	for _, e := range Experiments() {
		r, err := e.Run(ctx, opts)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
