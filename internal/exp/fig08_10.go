package exp

import (
	"fmt"
	"io"
	"strings"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
	"tfcsim/internal/trace"
)

// QueueFairnessConfig parameterizes the Figs 8–10 scenario: four
// long-lived flows (2 from H1, 2 from H2) to H3, starting at a fixed
// interval, for each protocol. The same run yields the queue-length
// series (Fig 8), per-flow goodput/fairness (Fig 9), and the convergence
// time of the third flow (Fig 10).
type QueueFairnessConfig struct {
	TopoConfig
	// StartInterval between consecutive flow starts (paper: 3s; default
	// 50ms — convergence happens at sub-millisecond timescales).
	StartInterval sim.Time
	// Tail run time after the last flow starts.
	Tail sim.Time
	// GoodputSample period (paper: 20ms; default 5ms).
	GoodputSample sim.Time
}

func (c *QueueFairnessConfig) fill() {
	if c.StartInterval == 0 {
		c.StartInterval = 50 * sim.Millisecond
	}
	if c.Tail == 0 {
		c.Tail = 100 * sim.Millisecond
	}
	if c.GoodputSample == 0 {
		c.GoodputSample = 5 * sim.Millisecond
	}
}

// QueueFairnessResult holds one protocol's outcome.
type QueueFairnessResult struct {
	Proto       Proto
	Queue       stats.TimeSeries   // bottleneck queue bytes over time
	Goodputs    []stats.TimeSeries // per-flow goodput (bits/s)
	AggGoodput  float64            // steady-state aggregate (bits/s)
	JainIndex   float64            // fairness across the 4 flows, steady state
	MaxQueue    int                // bytes
	AvgQueue    float64            // bytes, steady state
	Drops       int64
	ConvergeIn  sim.Time // time for flow 3 to reach 80% of fair share
	Events      uint64   // simulator events executed by this trial
	convergedAt sim.Time
}

// SimEvents reports the trial's event count to the runner pool.
func (r *QueueFairnessResult) SimEvents() uint64 { return r.Events }

// QueueFairness runs the Figs 8–10 scenario for one protocol.
func QueueFairness(cfg QueueFairnessConfig) *QueueFairnessResult {
	cfg.fill()
	e := Testbed(cfg.TopoConfig)
	h1, h2, h3 := e.Hosts[0], e.Hosts[1], e.Hosts[2]
	bott := e.Switches[1].PortTo(h3.ID()) // NF1 -> H3

	res := &QueueFairnessResult{Proto: cfg.Proto}
	srcs := []*netsim.Host{h1, h2, h1, h2}
	var faucets []*faucet
	for i, src := range srcs {
		f := newFaucet(e.Dialer, src, h3)
		faucets = append(faucets, f)
		at := sim.Time(i) * cfg.StartInterval
		e.Sim.At(at, f.Start)
	}
	// Queue sampler.
	qs := stats.NewSampler(e.Sim, sim.Millisecond, func() float64 {
		return float64(bott.QueueBytes())
	})
	// Per-flow goodput meters: the received-byte counter's growth over
	// each sampling interval, in bits/s (the paper samples every 20 ms).
	var meters []*stats.Sampler
	for _, f := range faucets {
		recv := f.conn.Received
		var last int64
		meters = append(meters, stats.NewSampler(e.Sim, cfg.GoodputSample, func() float64 {
			cur := recv()
			rate := float64(cur-last) * 8 / cfg.GoodputSample.Seconds()
			last = cur
			return rate
		}))
	}
	// Convergence detection for flow index 2 (the paper zooms on flow 3):
	// poll its rate every 200us after it starts; converged when its
	// throughput over the last window reaches 80% of the fair share (c/3
	// while 3 flows are active).
	flow3Start := 2 * cfg.StartInterval
	fair := float64(TestbedRate) / 3
	var prevBytes int64
	var pollStart sim.Time
	var poll func()
	const pollEvery = 200 * sim.Microsecond
	poll = func() {
		cur := faucets[2].conn.Received()
		rate := float64(cur-prevBytes) * 8 / pollEvery.Seconds()
		prevBytes = cur
		if res.convergedAt == 0 && rate >= 0.8*fair {
			res.convergedAt = e.Sim.Now()
			res.ConvergeIn = e.Sim.Now() - pollStart
			return
		}
		if e.Sim.Now() < flow3Start+cfg.StartInterval {
			e.Sim.After(pollEvery, poll)
		}
	}
	e.Sim.At(flow3Start, func() {
		pollStart = e.Sim.Now()
		prevBytes = faucets[2].conn.Received()
		e.Sim.After(pollEvery, poll)
	})

	end := 4*cfg.StartInterval + cfg.Tail
	e.Sim.RunUntil(end)
	qs.Stop()

	// Steady state: after all flows are up.
	steady := 3*cfg.StartInterval + cfg.StartInterval/2
	var rates []float64
	var agg float64
	for _, m := range meters {
		late := m.Series.After(steady)
		r := late.MeanV()
		rates = append(rates, r)
		agg += r
	}
	res.AggGoodput = agg
	res.JainIndex = jain(rates)
	for _, m := range meters {
		res.Goodputs = append(res.Goodputs, m.Series)
	}
	res.Queue = qs.Series
	res.MaxQueue = bott.MaxQueue
	res.AvgQueue = qs.Series.After(steady).MeanV()
	res.Drops = bott.Drops
	if res.convergedAt == 0 {
		res.ConvergeIn = -1 // never converged within the window
	}
	res.Events = e.Sim.Executed()
	return res
}

// SaveQueueFairnessCSV writes each protocol's queue_<proto>.csv and
// goodput_<proto>.csv time series into dir for external plotting.
func SaveQueueFairnessCSV(dir string, rs []*QueueFairnessResult) error {
	for _, r := range rs {
		name := string(r.Proto)
		if err := trace.SaveTo(dir, "queue_"+name+".csv", func(w io.Writer) error {
			return trace.WriteTimeSeries(w, "queue_bytes", &r.Queue)
		}); err != nil {
			return err
		}
		if err := trace.SaveTo(dir, "goodput_"+name+".csv", func(w io.Writer) error {
			names := make([]string, len(r.Goodputs))
			series := make([]*stats.TimeSeries, len(r.Goodputs))
			for i := range r.Goodputs {
				names[i] = fmt.Sprintf("flow%d_bps", i+1)
				series[i] = &r.Goodputs[i]
			}
			return trace.WriteMultiSeries(w, names, series)
		}); err != nil {
			return err
		}
	}
	return nil
}

func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// FormatQueueFairness renders Figs 8, 9 and 10 as one table.
func FormatQueueFairness(rs []*QueueFairnessResult) string {
	t := stats.Table{
		Title: "Figs 8-10 — queue length, goodput/fairness, convergence (4 staggered flows -> H3)",
		Header: []string{"proto", "agg goodput(Mbps)", "Jain", "avg queue(KB)",
			"max queue(KB)", "drops", "flow3 converge"},
	}
	for _, r := range rs {
		conv := "never"
		if r.ConvergeIn >= 0 {
			conv = r.ConvergeIn.String()
		}
		t.AddRow(string(r.Proto), stats.Mbps(r.AggGoodput), stats.F(r.JainIndex, 3),
			stats.F(r.AvgQueue/1024, 1), stats.F(float64(r.MaxQueue)/1024, 1),
			fmt.Sprint(r.Drops), conv)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("paper shape: TFC queue ~KBs & converges in ~1 round; DCTCP ~30KB queue; TCP fills 256KB buffer, unstable shares\n")
	return b.String()
}
