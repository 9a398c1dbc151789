package exp

import (
	"fmt"
	"io"
	"strings"

	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
	"tfcsim/internal/trace"
	"tfcsim/internal/workload"
)

// BenchmarkConfig parameterizes the realistic-workload experiments.
// Fig 13: the 9-host testbed, query fan-in 8, 2 KB responses, plus
// background flows from the web-search size distribution. Fig 16: the
// 18-rack x 20-server leaf-spine, fan-in = all 359 other servers.
type BenchmarkConfig struct {
	TopoConfig
	// Topology selector: if Racks > 0 a leaf-spine is built, otherwise
	// the 9-host testbed.
	Racks, PerRack int
	BufBytes       int
	// Arrival duration (new flows stop after this; the run continues
	// until flows drain or MaxDuration).
	Duration    sim.Time
	MaxDuration sim.Time
	QueryRate   float64 // queries/s, each fanning in from all other hosts
	BgFlowRate  float64 // background flows/s
}

func (c *BenchmarkConfig) fill() {
	if c.Duration == 0 {
		c.Duration = 500 * sim.Millisecond
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = c.Duration + 30*sim.Second
	}
	if c.QueryRate == 0 {
		c.QueryRate = 200
	}
	if c.BgFlowRate == 0 {
		c.BgFlowRate = 400
	}
	if c.BufBytes == 0 {
		c.BufBytes = TestbedBuf
	}
}

// BenchmarkResult aggregates FCTs the way Figs 13/16 report them.
type BenchmarkResult struct {
	Proto Proto
	// QueryFCT percentiles in microseconds.
	QueryFCT stats.Sample
	// BgFCT99 is the 99.9th-percentile FCT per size bucket (microseconds).
	BgFCT [6]stats.Sample
	// Unfinished counts flows that never completed within MaxDuration.
	Unfinished int
	Flows      int
	Events     uint64 // simulator events executed by this trial
}

// SimEvents reports the trial's event count to the runner pool.
func (r *BenchmarkResult) SimEvents() uint64 { return r.Events }

// Benchmark runs the workload for one protocol.
func Benchmark(cfg BenchmarkConfig) *BenchmarkResult {
	cfg.fill()
	var e *Env
	if cfg.Racks > 0 {
		e = LeafSpine(cfg.TopoConfig, cfg.Racks, cfg.PerRack, cfg.BufBytes)
	} else {
		e = Testbed(cfg.TopoConfig)
	}
	b := workload.NewBenchmark(workload.BenchmarkConfig{
		Dialer: e.Dialer, Hosts: e.Hosts,
		Duration:   cfg.Duration,
		QueryRate:  cfg.QueryRate,
		BgFlowRate: cfg.BgFlowRate,
	})
	b.Start()
	for e.Sim.Now() < cfg.MaxDuration && e.Sim.Live() > 0 {
		e.Sim.RunUntil(e.Sim.Now() + 50*sim.Millisecond)
		if e.Sim.Now() >= cfg.Duration && b.DoneFraction() >= 1 {
			break
		}
	}
	res := &BenchmarkResult{Proto: cfg.Proto, Flows: len(b.Flows), Events: e.Sim.Executed()}
	for _, f := range b.Flows {
		if !f.Done {
			res.Unfinished++
			continue
		}
		if f.Query {
			res.QueryFCT.AddTime(f.FCT)
		} else {
			res.BgFCT[workload.BucketIndex(f.Bytes)].AddTime(f.FCT)
		}
	}
	return res
}

// SaveBenchmarkCSV writes per-protocol query-FCT CDFs into dir.
func SaveBenchmarkCSV(dir string, rs []*BenchmarkResult) error {
	for _, r := range rs {
		r := r
		name := "query_fct_cdf_" + string(r.Proto) + ".csv"
		if err := trace.SaveTo(dir, name, func(w io.Writer) error {
			return trace.WriteCDF(w, "fct_us", &r.QueryFCT)
		}); err != nil {
			return err
		}
	}
	return nil
}

// FormatBenchmark renders the Fig 13/16 pair of panels.
func FormatBenchmark(title string, rs []*BenchmarkResult) string {
	var b strings.Builder
	qt := stats.Table{
		Title: title + " — (a) query flow FCT (us)",
		Header: []string{"proto", "mean", "95th", "99th", "99.9th", "99.99th",
			"n", "unfinished"},
	}
	for _, r := range rs {
		qt.AddRow(string(r.Proto),
			stats.F(r.QueryFCT.Mean(), 0), stats.F(r.QueryFCT.Percentile(95), 0),
			stats.F(r.QueryFCT.Percentile(99), 0), stats.F(r.QueryFCT.Percentile(99.9), 0),
			stats.F(r.QueryFCT.Percentile(99.99), 0),
			fmt.Sprint(r.QueryFCT.N()), fmt.Sprint(r.Unfinished))
	}
	b.WriteString(qt.String())
	bt := stats.Table{
		Title:  title + " — (b) background flow 99.9th FCT by size (us)",
		Header: append([]string{"proto"}, bucketLabels()...),
	}
	for _, r := range rs {
		row := []string{string(r.Proto)}
		for i := range r.BgFCT {
			if r.BgFCT[i].N() == 0 {
				row = append(row, "-")
			} else {
				row = append(row, stats.F(r.BgFCT[i].Percentile(99.9), 0))
			}
		}
		bt.AddRow(row...)
	}
	b.WriteString(bt.String())
	b.WriteString("paper shape: TFC query FCT mean/tail far below DCTCP (~30x) and TCP (~8x more than DCTCP); TFC small background flows faster, largest flows slightly slower\n")
	return b.String()
}

func bucketLabels() []string {
	var out []string
	for _, bkt := range workload.SizeBuckets {
		out = append(out, bkt.Label)
	}
	return out
}
