package exp

import (
	"fmt"
	"io"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
	"tfcsim/internal/trace"
	"tfcsim/internal/workload"
)

// IncastConfig parameterizes the incast experiments. Fig 12 (testbed):
// 1 Gbps, 256 KB buffer, 256 KB blocks, 5–100 senders, TFC vs DCTCP vs
// TCP. Fig 15 (large-scale): 10 Gbps, 512 KB buffer, {64,128,256} KB
// blocks, up to 400 senders, TFC vs TCP.
type IncastConfig struct {
	TopoConfig
	Senders    int
	Rate       netsim.Rate
	BufBytes   int
	BlockBytes int64
	Rounds     int
	// MaxDuration bounds the run (collapsed TCP can take very long).
	MaxDuration sim.Time
}

func (c *IncastConfig) fill() {
	if c.Rate == 0 {
		c.Rate = netsim.Gbps
	}
	if c.BufBytes == 0 {
		c.BufBytes = TestbedBuf
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 256 << 10
	}
	if c.Rounds == 0 {
		c.Rounds = 20
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 60 * sim.Second
	}
}

// IncastPoint is one (protocol, senders) measurement.
type IncastPoint struct {
	Proto      Proto
	Senders    int
	BlockBytes int64
	Goodput    float64 // application bits/s at the receiver over the run
	AvgQ       float64 // bytes
	MaxQ       int     // bytes
	Drops      int64
	Timeouts   int64
	MaxTOBlock float64 // max timeouts per block over flows (Fig 15b)
	Rounds     int
	Elapsed    sim.Time
	Events     uint64 // simulator events executed by this trial
}

// SimEvents reports the trial's event count to the runner pool.
func (p IncastPoint) SimEvents() uint64 { return p.Events }

// Incast runs one incast configuration.
func Incast(cfg IncastConfig) IncastPoint {
	cfg.fill()
	// The incast workload's round bookkeeping (workload.Incast.pending,
	// RoundsDone) is updated from every sender's OnDrain callback; under
	// sharded execution those fire on different shard goroutines. The
	// topology would decompose, the workload does not — force the
	// sequential engine.
	cfg.Shards = 0
	e, senders, recv, bott := Star(cfg.TopoConfig, cfg.Senders, cfg.Rate, cfg.BufBytes)
	in := workload.NewIncast(workload.IncastConfig{
		Dialer: e.Dialer, Senders: senders, Receiver: recv,
		BlockBytes: cfg.BlockBytes, Rounds: cfg.Rounds,
	})
	qs := stats.NewSampler(e.Sim, sim.Millisecond, func() float64 {
		return float64(bott.QueueBytes())
	})
	settle := 5 * sim.Millisecond
	in.Start(settle)
	// Run until all rounds complete or the cap hits.
	for e.Sim.Now() < cfg.MaxDuration && in.RoundsDone < cfg.Rounds && e.Sim.Live() > 0 {
		e.Sim.RunUntil(e.Sim.Now() + 10*sim.Millisecond)
	}
	qs.Stop()
	elapsed := e.Sim.Now() - settle
	if elapsed <= 0 {
		elapsed = 1
	}
	return IncastPoint{
		Proto:      cfg.Proto,
		Senders:    cfg.Senders,
		BlockBytes: cfg.BlockBytes,
		Goodput:    float64(in.BytesReceived()) * 8 / elapsed.Seconds(),
		AvgQ:       qs.Series.MeanV(),
		MaxQ:       bott.MaxQueue,
		Drops:      bott.Drops,
		Timeouts:   in.TotalTimeouts(),
		MaxTOBlock: in.MaxTimeoutsPerBlock(),
		Rounds:     in.RoundsDone,
		Elapsed:    elapsed,
		Events:     e.Sim.Executed(),
	}
}

// SaveIncastCSV writes an incast sweep as CSV into dir/name.
func SaveIncastCSV(dir, name string, points []IncastPoint) error {
	t := incastTable("", points)
	return trace.SaveTo(dir, name, func(w io.Writer) error {
		return trace.WriteTable(w, t)
	})
}

// FormatIncast renders Fig 12 (or one block size of Fig 15).
func FormatIncast(title string, points []IncastPoint) string {
	return incastTable(title, points).String()
}

func incastTable(title string, points []IncastPoint) *stats.Table {
	t := stats.Table{
		Title: title,
		Header: []string{"proto", "senders", "block", "goodput(Mbps)", "avgQ(KB)",
			"maxQ(KB)", "drops", "timeouts", "maxTO/block", "rounds"},
	}
	for _, p := range points {
		t.AddRow(string(p.Proto), fmt.Sprint(p.Senders),
			fmt.Sprintf("%dKB", p.BlockBytes>>10),
			stats.Mbps(p.Goodput), stats.F(p.AvgQ/1024, 1),
			stats.F(float64(p.MaxQ)/1024, 1), fmt.Sprint(p.Drops),
			fmt.Sprint(p.Timeouts), stats.F(p.MaxTOBlock, 2), fmt.Sprint(p.Rounds))
	}
	return &t
}
