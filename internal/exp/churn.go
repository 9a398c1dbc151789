package exp

import (
	"fmt"
	"strings"

	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
)

// ChurnConfig parameterizes the on-off churn experiment (beyond-paper
// extension of the paper's §2 motivation): Storm-style connections that
// transmit intermittently. A set of persistent connections toggles
// between active and silent with exponential on/off periods; the link
// should stay near-fully utilized by whoever is active, with near-zero
// queues — the silent-flow reclamation D3-style schemes fail at.
type ChurnConfig struct {
	TopoConfig
	Flows    int      // persistent connections (default 8)
	Duration sim.Time // default 500ms
	Warmup   sim.Time
}

// churnPeriod is the mean of the exponential active and silent periods.
const churnPeriod = 5 * sim.Millisecond

// ChurnResult summarizes the run.
type ChurnResult struct {
	Proto       Proto
	Utilization float64 // fraction of expected active capacity achieved
	Goodput     float64 // bits/s at the receiver(s)
	AvgQ        float64
	MaxQ        int
	Drops       int64
	Timeouts    int64
	Events      uint64 // simulator events executed by this trial
}

// SimEvents reports the trial's event count to the runner pool.
func (r ChurnResult) SimEvents() uint64 { return r.Events }

// Churn runs the on-off workload for one protocol on the star topology.
func Churn(cfg ChurnConfig) ChurnResult {
	if cfg.Flows == 0 {
		cfg.Flows = 8
	}
	if cfg.Duration == 0 {
		cfg.Duration = 500 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Duration / 5
	}
	e, senders, recv, bott := Star(cfg.TopoConfig, cfg.Flows, TestbedRate, TestbedBuf)
	var fs []*faucet
	for _, h := range senders {
		f := newFaucet(e.Dialer, h, recv)
		// Small refill chunks so a Pause actually silences the flow within
		// ~1ms instead of draining a megabyte through the off-period.
		f.chunk = 64 << 10
		fs = append(fs, f)
		e.Sim.At(0, f.Start)
	}
	// Exponential on/off toggling per flow, independent.
	var schedule func(i int)
	schedule = func(i int) {
		f := fs[i]
		d := sim.Time(e.Sim.Rand.ExpFloat64() * float64(churnPeriod))
		if d < 100*sim.Microsecond {
			d = 100 * sim.Microsecond
		}
		e.Sim.After(d, func() {
			if f.active {
				f.Pause()
			} else {
				f.Resume()
			}
			schedule(i)
		})
	}
	for i := range fs {
		schedule(i)
	}
	qs := stats.NewSampler(e.Sim, sim.Millisecond, func() float64 {
		return float64(bott.QueueBytes())
	})
	// Track how often at least one flow is active (the utilization
	// denominator: the link can only be used when someone has data).
	activeTime := 0.0
	last := e.Sim.Now()
	act := stats.NewSampler(e.Sim, 100*sim.Microsecond, func() float64 {
		now := e.Sim.Now()
		dt := (now - last).Seconds()
		last = now
		for _, f := range fs {
			if f.active || f.conn.Sender.Acked() < f.conn.Sender.Queued() {
				activeTime += dt
				return 1
			}
		}
		return 0
	})
	var base int64
	e.Sim.At(cfg.Warmup, func() {
		for _, f := range fs {
			base += f.conn.Received()
		}
		activeTime = 0
	})
	e.Sim.RunUntil(cfg.Duration)
	qs.Stop()
	act.Stop()
	var total int64
	var timeouts int64
	for _, f := range fs {
		total += f.conn.Received()
		timeouts += f.conn.Sender.Stats().Timeouts
	}
	res := ChurnResult{Proto: cfg.Proto}
	res.Goodput = float64(total-base) * 8 / (cfg.Duration - cfg.Warmup).Seconds()
	if activeTime > 0 {
		// Achievable payload capacity while anyone was active.
		achievable := float64(TestbedRate) * (1460.0 / 1538.0) * activeTime /
			(cfg.Duration - cfg.Warmup).Seconds()
		res.Utilization = res.Goodput / achievable
	}
	res.AvgQ = qs.Series.After(cfg.Warmup).MeanV()
	res.MaxQ = bott.MaxQueue
	res.Drops = bott.Drops
	res.Timeouts = timeouts
	res.Events = e.Sim.Executed()
	return res
}

// FormatChurn renders the comparison table.
func FormatChurn(rs []ChurnResult) string {
	t := stats.Table{
		Title: "On-off churn (beyond-paper: Storm-style silent flows, §2 motivation)",
		Header: []string{"proto", "goodput(Mbps)", "util-of-active", "avgQ(KB)",
			"maxQ(KB)", "drops", "timeouts"},
	}
	for _, r := range rs {
		t.AddRow(string(r.Proto), stats.Mbps(r.Goodput), stats.F(r.Utilization, 2),
			stats.F(r.AvgQ/1024, 1), stats.F(float64(r.MaxQ)/1024, 1),
			fmt.Sprint(r.Drops), fmt.Sprint(r.Timeouts))
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("expected: TFC reclaims silent flows' shares within ~1 RTT (E counts only active rounds), keeping utilization high at near-zero queue; window re-acquisition makes resumes burst-free\n")
	return b.String()
}
