package exp

import (
	"fmt"
	"io"
	"strings"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
	"tfcsim/internal/trace"
	"tfcsim/internal/workload"
)

// RTTAccuracyConfig parameterizes Fig 6 (accuracy of measuring rtt_b).
// H1 and H2 each run 2 long-lived TFC flows to H3; the switch's per-window
// rtt_b samples are compared with a reference RTT measured by a
// one-packet-per-round probe flow on an unloaded path.
type RTTAccuracyConfig struct {
	TopoConfig
	// Duration of the loaded measurement run (default 2s).
	Duration sim.Time
	// Window over which each rtt_b sample is taken (paper: 1 second;
	// default 100ms so short runs still yield many samples).
	Window sim.Time
}

// RTTAccuracyResult is the Fig 6 output: CDF summaries of measured rtt_b
// versus the reference RTT (both in microseconds).
type RTTAccuracyResult struct {
	MeasuredRTTB stats.Sample
	Reference    stats.Sample
	Events       uint64 // simulator events across both runs
}

// SimEvents reports the trial's event count to the runner pool.
func (r *RTTAccuracyResult) SimEvents() uint64 { return r.Events }

// RTTAccuracy runs the Fig 6 experiment.
func RTTAccuracy(cfg RTTAccuracyConfig) *RTTAccuracyResult {
	if cfg.Duration == 0 {
		cfg.Duration = 2 * sim.Second
	}
	if cfg.Window == 0 {
		cfg.Window = 100 * sim.Millisecond
	}
	cfg.Proto = TFC
	res := &RTTAccuracyResult{}

	// Reference run: unloaded path; one-MSS messages measured at the
	// sender give the queueless RTT (the paper's "referenced rtt" probe:
	// one MTU packet per round trip).
	{
		rt := cfg.TopoConfig
		rt.Telemetry = nil // the loaded run below owns the trial's sink
		e := Testbed(rt)
		h1, h3 := e.Hosts[0], e.Hosts[2]
		var lastSend sim.Time
		var conn *workload.Conn
		conn = e.Dialer.Dial(h1, h3, func() {
			res.Reference.AddTime(e.Sim.Now() - lastSend)
			lastSend = e.Sim.Now()
			conn.Sender.Send(netsim.MSS)
		}, nil)
		e.Sim.At(0, func() { conn.Sender.Open() })
		e.Sim.After(2*sim.Millisecond, func() {
			lastSend = e.Sim.Now()
			conn.Sender.Send(netsim.MSS)
		})
		e.Sim.RunUntil(cfg.Duration / 2)
		res.Events += e.Sim.Executed()
	}

	// Loaded run: 2+2 flows H1,H2 -> H3; per-window min of rtt_m at the
	// bottleneck port (NF1 -> H3) is the paper's measured rtt_b.
	{
		var windowMin sim.Time
		e := Testbed(cfg.TopoConfig)
		h1, h2, h3 := e.Hosts[0], e.Hosts[1], e.Hosts[2]
		bott := e.Switches[1].PortTo(h3.ID()) // NF1 -> H3
		tapSlots(e, bott, func(ev netsim.Event) {
			if rttm := sim.Time(ev.A); windowMin == 0 || rttm < windowMin {
				windowMin = rttm
			}
		})
		for _, src := range []*netsim.Host{h1, h1, h2, h2} {
			f := newFaucet(e.Dialer, src, h3)
			e.Sim.At(0, func() { f.Start() })
		}
		var tick func()
		tick = func() {
			if windowMin > 0 {
				res.MeasuredRTTB.AddTime(windowMin)
			}
			windowMin = 0
			e.Sim.After(cfg.Window, tick)
		}
		// Discard the first window (convergence transient).
		e.Sim.After(cfg.Window, func() { windowMin = 0; e.Sim.After(cfg.Window, tick) })
		e.Sim.RunUntil(cfg.Duration)
		res.Events += e.Sim.Executed()
	}
	return res
}

// SaveRTTAccuracyCSV writes the Fig 6 CDFs into dir as rttb_cdf.csv and
// reference_cdf.csv.
func SaveRTTAccuracyCSV(dir string, r *RTTAccuracyResult) error {
	if err := trace.SaveTo(dir, "rttb_cdf.csv", func(w io.Writer) error {
		return trace.WriteCDF(w, "rttb_us", &r.MeasuredRTTB)
	}); err != nil {
		return err
	}
	return trace.SaveTo(dir, "reference_cdf.csv", func(w io.Writer) error {
		return trace.WriteCDF(w, "reference_rtt_us", &r.Reference)
	})
}

// String renders the Fig 6 comparison.
func (r *RTTAccuracyResult) String() string {
	t := stats.Table{
		Title:  "Fig 6 — accuracy of measured rtt_b (microseconds)",
		Header: []string{"series", "p10", "p50", "p90", "mean", "n"},
	}
	row := func(name string, s *stats.Sample) {
		t.AddRow(name, stats.F(s.Percentile(10), 1), stats.F(s.Percentile(50), 1),
			stats.F(s.Percentile(90), 1), stats.F(s.Mean(), 1), fmt.Sprint(s.N()))
	}
	row("measured rtt_b", &r.MeasuredRTTB)
	row("reference RTT", &r.Reference)
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "shape check (rtt_b at or below reference, paper: 59us vs 65us): %v\n",
		r.MeasuredRTTB.Percentile(50) <= r.Reference.Percentile(50))
	return b.String()
}

// NeAccuracyConfig parameterizes Fig 7 (accuracy of the effective-flow
// count with inactive flows): n2 = 5 persistent flows H4 -> H6 (the
// delimiter rack-local flows) plus n1 cross-rack flows H1 -> H6 that
// activate one per interval up to 10 and then deactivate one per interval.
type NeAccuracyConfig struct {
	TopoConfig
	// Interval between activation/deactivation steps (paper: 1s;
	// default 50ms for CI-speed runs).
	Interval sim.Time
}

// The Fig 7 flow counts, the paper's: at most neN1Max on-off cross-rack
// flows and neN2 persistent rack-local ones.
const neN1Max, neN2 = 10, 5

// NePoint is one sampled comparison.
type NePoint struct {
	T        sim.Time
	Active   int     // currently active n1 flows
	Measured float64 // mean E over the sample period
	Expected float64 // n1/rttRatio + n2 (eq. 1)
}

// NeAccuracyResult is the Fig 7 output.
type NeAccuracyResult struct {
	Points []NePoint
	// Events is the simulator event count of the run.
	Events uint64
	// RTTRatio is the measured cross-rack/rack-local RTT ratio used for
	// the expected value (the paper's was ~1.5 on their testbed).
	RTTRatio float64
	// MeanAbsErr is the mean |measured-expected| over all points.
	MeanAbsErr float64
}

// SimEvents reports the trial's event count to the runner pool.
func (r *NeAccuracyResult) SimEvents() uint64 { return r.Events }

// NeAccuracy runs the Fig 7 experiment.
func NeAccuracy(cfg NeAccuracyConfig) *NeAccuracyResult {
	if cfg.Interval == 0 {
		cfg.Interval = 50 * sim.Millisecond
	}
	cfg.Proto = TFC

	var eSum, eN float64
	e := Testbed(cfg.TopoConfig)
	// H4, H6 are on NF2 (hosts index 3..5); H1 on NF1.
	h1, h4, h6 := e.Hosts[0], e.Hosts[3], e.Hosts[5]
	tapSlots(e, e.Switches[2].PortTo(h6.ID()), func(ev netsim.Event) { // NF2 -> H6
		eSum += float64(ev.B)
		eN++
	})

	// n2 persistent flows H4 -> H6 (started first: one becomes delimiter).
	var locals []*faucet
	for i := 0; i < neN2; i++ {
		f := newFaucet(e.Dialer, h4, h6)
		locals = append(locals, f)
		e.Sim.At(0, func() { f.Start() })
	}
	var onoff []*faucet
	for i := 0; i < neN1Max; i++ {
		onoff = append(onoff, newFaucet(e.Dialer, h1, h6))
	}
	res := &NeAccuracyResult{}
	active := 0
	// Schedule activations then deactivations.
	for k := 0; k < neN1Max; k++ {
		k := k
		e.Sim.At(sim.Time(k+1)*cfg.Interval, func() {
			if !onoff[k].active && onoff[k].conn.Sender.Queued() == 0 {
				onoff[k].Start()
			} else {
				onoff[k].Resume()
			}
			active++
		})
		e.Sim.At(sim.Time(neN1Max+k+1)*cfg.Interval, func() {
			onoff[k].Pause()
			active--
		})
	}
	// The expected value (eq. 1) needs the cross/local RTT ratio. The
	// paper used the measured ratio of its testbed (~1.5); we likewise
	// measure it live from the flows' smoothed RTTs, since under load the
	// loaded RTTs — not the propagation ratio — determine how many rounds
	// each flow completes per slot.
	ratio := func() float64 {
		var lsum, lc, csum, cc float64
		for _, f := range locals {
			if srtt := f.conn.SRTT(); srtt > 0 {
				lsum += srtt.Seconds()
				lc++
			}
		}
		for _, f := range onoff {
			if f.active {
				if srtt := f.conn.SRTT(); srtt > 0 {
					csum += srtt.Seconds()
					cc++
				}
			}
		}
		if lc == 0 || cc == 0 || lsum == 0 {
			return 2.0 // unloaded analytic fallback
		}
		return (csum / cc) / (lsum / lc)
	}

	// Sample measured E each interval (mean of slot E values in it).
	end := sim.Time(2*neN1Max+2) * cfg.Interval
	var rsum float64
	var rn int
	var tick func()
	tick = func() {
		if eN > 0 {
			m := eSum / eN
			r := ratio()
			rsum += r
			rn++
			exp := float64(active)/r + float64(neN2)
			res.Points = append(res.Points, NePoint{
				T: e.Sim.Now(), Active: active, Measured: m, Expected: exp,
			})
		}
		eSum, eN = 0, 0
		if e.Sim.Now() < end {
			e.Sim.After(cfg.Interval/2, tick)
		}
	}
	e.Sim.After(cfg.Interval, tick)
	e.Sim.RunUntil(end + cfg.Interval)
	res.Events = e.Sim.Executed()
	if rn > 0 {
		res.RTTRatio = rsum / float64(rn)
	}

	var mae float64
	for _, p := range res.Points {
		d := p.Measured - p.Expected
		if d < 0 {
			d = -d
		}
		mae += d
	}
	if len(res.Points) > 0 {
		res.MeanAbsErr = mae / float64(len(res.Points))
	}
	return res
}

// String renders the Fig 7 series.
func (r *NeAccuracyResult) String() string {
	t := stats.Table{
		Title:  "Fig 7 — accuracy of Ne with inactive flows",
		Header: []string{"t", "active n1", "measured Ne", "expected Ne"},
	}
	for _, p := range r.Points {
		t.AddRow(p.T.String(), fmt.Sprint(p.Active),
			stats.F(p.Measured, 2), stats.F(p.Expected, 2))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "mean |measured-expected| = %.2f flows (rtt ratio %.1f)\n",
		r.MeanAbsErr, r.RTTRatio)
	return b.String()
}
