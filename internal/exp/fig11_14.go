package exp

import (
	"fmt"
	"strings"

	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
)

// WorkConservingConfig parameterizes Fig 11 (the Fig 5 topology): host1
// sends n1 = 8 flows to host4 and n2 = 2 flows to host3; host2 sends
// n3 = 2 flows to host3. Two bottlenecks: the S1->S2 uplink (n1+n2 flows)
// and the S2->host3 downlink (n2+n3 flows). Work conservation requires
// both links to stay near full even though the downlink's n2 flows are
// clamped by the uplink.
type WorkConservingConfig struct {
	TopoConfig
	Duration sim.Time
	// Warmup excluded from goodput accounting.
	Warmup sim.Time
	// DisableAdjust runs the ablation (A1): token adjustment off.
	DisableAdjust bool
}

// WorkConservingResult is the Fig 11 output.
type WorkConservingResult struct {
	UplinkGoodput   float64 // bits/s through S1->S2 (Fig 11a "S1")
	DownlinkGoodput float64 // bits/s through S2->host3 (Fig 11a "S2")
	UplinkQueue     stats.TimeSeries
	DownlinkQueue   stats.TimeSeries
	UplinkAvgQ      float64
	DownlinkAvgQ    float64
	Drops           int64
	Events          uint64 // simulator events executed by this trial
}

// SimEvents reports the trial's event count to the runner pool.
func (r *WorkConservingResult) SimEvents() uint64 { return r.Events }

// WorkConserving runs the Fig 11 experiment (TFC).
func WorkConserving(cfg WorkConservingConfig) *WorkConservingResult {
	const n1, n2, n3 = 8, 2, 2
	if cfg.Duration == 0 {
		cfg.Duration = 500 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Duration / 4
	}
	cfg.Proto = TFC
	cfg.TFC.DisableAdjust = cfg.DisableAdjust
	e := MultiBottleneck(cfg.TopoConfig)

	start := func(f *faucet) { e.Sim.At(0, f.Start) }
	for i := 0; i < n1; i++ {
		start(newFaucet(e.Dialer, e.H1, e.H4))
	}
	for i := 0; i < n2; i++ {
		start(newFaucet(e.Dialer, e.H1, e.H3))
	}
	for i := 0; i < n3; i++ {
		start(newFaucet(e.Dialer, e.H2, e.H3))
	}

	res := &WorkConservingResult{}
	upQ := stats.NewSampler(e.Sim, sim.Millisecond, func() float64 { return float64(e.Uplink.QueueBytes()) })
	dnQ := stats.NewSampler(e.Sim, sim.Millisecond, func() float64 { return float64(e.Downlink.QueueBytes()) })

	var upBase, dnBase int64
	e.Sim.At(cfg.Warmup, func() {
		upBase = e.Uplink.TxFrames
		dnBase = e.Downlink.TxFrames
	})
	e.Sim.RunUntil(cfg.Duration)
	span := (cfg.Duration - cfg.Warmup).Seconds()
	res.UplinkGoodput = float64(e.Uplink.TxFrames-upBase) * 8 / span
	res.DownlinkGoodput = float64(e.Downlink.TxFrames-dnBase) * 8 / span
	res.UplinkQueue = upQ.Series
	res.DownlinkQueue = dnQ.Series
	res.UplinkAvgQ = upQ.Series.After(cfg.Warmup).MeanV()
	res.DownlinkAvgQ = dnQ.Series.After(cfg.Warmup).MeanV()
	res.Drops = e.Uplink.Drops + e.Downlink.Drops
	res.Events = e.Sim.Executed()
	return res
}

// FormatWorkConserving renders Fig 11 (optionally with the A1 ablation).
func FormatWorkConserving(full, ablated *WorkConservingResult) string {
	t := stats.Table{
		Title: "Fig 11 — work conserving (Fig 5 topology: n1=8 1->4, n2=2 1->3, n3=2 2->3)",
		Header: []string{"variant", "S1 uplink(Mbps)", "S2 downlink(Mbps)",
			"S1 avgQ(KB)", "S2 avgQ(KB)", "drops"},
	}
	row := func(name string, r *WorkConservingResult) {
		t.AddRow(name, stats.Mbps(r.UplinkGoodput), stats.Mbps(r.DownlinkGoodput),
			stats.F(r.UplinkAvgQ/1024, 2), stats.F(r.DownlinkAvgQ/1024, 2),
			fmt.Sprint(r.Drops))
	}
	row("TFC", full)
	if ablated != nil {
		row("TFC no-adjust (A1)", ablated)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("paper shape: both bottlenecks ~910-940 Mbps, queues ~2KB (one packet); without adjustment the downlink strands the uplink-clamped flows' share\n")
	return b.String()
}

// Rho0SweepConfig parameterizes one point of Fig 14: 5 flows (H1-H5) to
// H6 under TFC with the embedded TFC.Rho0 (swept from 0.90 to 1.00, one
// trial per value); goodput at the receiver and queue at the NF2->H6 port
// are reported.
type Rho0SweepConfig struct {
	TopoConfig
	Duration sim.Time
	Warmup   sim.Time
}

// Rho0Point is one sweep point.
type Rho0Point struct {
	Rho0    float64
	Goodput float64 // receiver application goodput, bits/s
	AvgQ    float64 // bytes
	MaxQ    int
	Drops   int64
	Events  uint64 // simulator events executed for this point
}

// SimEvents reports the point's event count to the runner pool.
func (p Rho0Point) SimEvents() uint64 { return p.Events }

// Rho0Sweep runs one Fig 14 point at cfg.TFC.Rho0, which the caller sets
// (the point reports it as given).
func Rho0Sweep(cfg Rho0SweepConfig) Rho0Point {
	if cfg.Duration == 0 {
		cfg.Duration = 400 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Duration / 4
	}
	cfg.Proto = TFC
	e := Testbed(cfg.TopoConfig)
	h6 := e.Hosts[5]
	bott := e.Switches[2].PortTo(h6.ID()) // NF2 -> H6
	var faucets []*faucet
	for i := 0; i < 5; i++ {
		f := newFaucet(e.Dialer, e.Hosts[i], h6)
		faucets = append(faucets, f)
		e.Sim.At(0, f.Start)
	}
	qs := stats.NewSampler(e.Sim, sim.Millisecond, func() float64 {
		return float64(bott.QueueBytes())
	})
	var base int64
	baseAt := func() int64 {
		var n int64
		for _, f := range faucets {
			n += f.conn.Received()
		}
		return n
	}
	e.Sim.At(cfg.Warmup, func() { base = baseAt() })
	e.Sim.RunUntil(cfg.Duration)
	span := (cfg.Duration - cfg.Warmup).Seconds()
	return Rho0Point{
		Rho0:    cfg.TFC.Rho0,
		Goodput: float64(baseAt()-base) * 8 / span,
		AvgQ:    qs.Series.After(cfg.Warmup).MeanV(),
		MaxQ:    bott.MaxQueue,
		Drops:   bott.Drops,
		Events:  e.Sim.Executed(),
	}
}

// FormatRho0Sweep renders Fig 14.
func FormatRho0Sweep(points []Rho0Point) string {
	t := stats.Table{
		Title:  "Fig 14 — impact of rho0 (5 flows -> H6)",
		Header: []string{"rho0", "goodput(Mbps)", "avg queue(KB)", "max queue(KB)", "drops"},
	}
	for _, p := range points {
		t.AddRow(stats.F(p.Rho0, 2), stats.Mbps(p.Goodput),
			stats.F(p.AvgQ/1024, 2), stats.F(float64(p.MaxQ)/1024, 1), fmt.Sprint(p.Drops))
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("paper shape: goodput rises ~880->940 Mbps with rho0; queue <1KB below 0.98, ~6KB at 1.00\n")
	return b.String()
}
