package exp

import (
	"fmt"
	"strings"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
)

// RobustnessConfig parameterizes the failure-recovery experiment
// (beyond-paper extension of §4's robustness mechanisms): long-lived
// flows saturate the star bottleneck, a fault hits the bottleneck link,
// and the metric is how fast and how cleanly each protocol comes back.
type RobustnessConfig struct {
	TopoConfig
	// FaultScenario is the fault the trial injects at Warmup; its Name
	// labels the resulting point.
	FaultScenario
	Flows int // persistent senders (default 8)
	// Warmup is the steady-state period before the fault (default 100ms).
	Warmup sim.Time
	// Tail is how long the run continues after the fault clears (default
	// 500ms — long enough for an RTO-backoff-bound recovery).
	Tail sim.Time
}

// The recovery detector's utilization window and the number of
// consecutive >= 90% windows it needs.
const (
	utilWindow = sim.Millisecond
	recoverRun = 10
)

func (c *RobustnessConfig) fill() {
	if c.Flows == 0 {
		c.Flows = 8
	}
	if c.Warmup == 0 {
		c.Warmup = 100 * sim.Millisecond
	}
	if c.Burst == 0 {
		c.Burst = 5
	}
	if c.Tail == 0 {
		c.Tail = 500 * sim.Millisecond
	}
}

// FaultScenario names one fault pattern of the sweep.
type FaultScenario struct {
	Name string
	// Blackout takes the bottleneck link down (both directions, queue
	// preserved) for this long at Warmup. 0 disables.
	Blackout sim.Time
	// Loss enables Gilbert–Elliott bursty loss on the bottleneck from
	// Warmup to the end of the run with this mean loss rate. 0 disables.
	Loss  float64
	Burst float64 // mean loss-burst length in packets (default 5)
}

// DefaultScenarios is the sweep the registry runs: three blackout
// durations spanning sub-RTO to many-RTO, plus sustained 1% bursty loss.
var DefaultScenarios = []FaultScenario{
	{Name: "blackout-5ms", Blackout: 5 * sim.Millisecond},
	{Name: "blackout-50ms", Blackout: 50 * sim.Millisecond},
	{Name: "blackout-500ms", Blackout: 500 * sim.Millisecond},
	{Name: "loss-1%-burst5", Loss: 0.01, Burst: 5},
}

// RobustnessPoint is one (scenario, protocol) trial.
type RobustnessPoint struct {
	Proto    Proto
	Scenario string
	// Recovery is the time from link restoration to the start of the
	// first sustained >= 90%-utilization stretch; -1 if never (or if the
	// scenario has no blackout).
	Recovery sim.Time
	// PostQPeak is the bottleneck queue peak (bytes, 100us sampling)
	// after the fault cleared — retransmission-burst overshoot.
	PostQPeak int
	// Goodput is receiver goodput (bits/s) over the tail.
	Goodput  float64
	RtxBytes int64
	Timeouts int64
	Drops    int64
	Events   uint64
}

// SimEvents reports the trial's event count to the runner pool.
func (r RobustnessPoint) SimEvents() uint64 { return r.Events }

// Robustness runs one fault trial for one protocol on the star topology.
// All fault timing and loss randomness derive from cfg.Seed, so a trial
// is byte-identical wherever it runs.
func Robustness(cfg RobustnessConfig) RobustnessPoint {
	cfg.fill()
	e, senders, recv, bott := Star(cfg.TopoConfig, cfg.Flows, TestbedRate, TestbedBuf)
	var fs []*faucet
	for _, h := range senders {
		f := newFaucet(e.Dialer, h, recv)
		f.chunk = 256 << 10
		fs = append(fs, f)
		e.Sim.At(0, f.Start)
	}

	upAt := cfg.Warmup + cfg.Blackout
	if cfg.Blackout > 0 {
		// A cable failure is bidirectional: data direction (bott) and the
		// ACK/credit direction (the receiver's NIC). Queues are preserved
		// (pulled-cable semantics), so the backlog drains on restore.
		nic := recv.NIC()
		e.Sim.At(cfg.Warmup, func() { bott.SetDown(); nic.SetDown() })
		e.Sim.At(upAt, func() { bott.SetUp(); nic.SetUp() })
	}
	if cfg.Loss > 0 {
		ge := netsim.NewGilbertElliott(cfg.Loss, cfg.Burst)
		e.Sim.At(cfg.Warmup, func() { bott.SetLoss(ge) })
	}
	end := upAt + cfg.Tail

	// Recovery detector: utilization per utilWindow from the bottleneck's
	// transmitted frame bytes, recovered at the start of recoverRun
	// consecutive windows >= 90% of window capacity.
	winBytes := 0.9 * float64(bott.Rate.BytesIn(utilWindow))
	recovery := sim.Time(-1)
	var lastFrames int64
	var streak int
	var streakStart sim.Time
	var utilTick func()
	utilTick = func() {
		now := e.Sim.Now()
		delta := bott.TxFrames - lastFrames
		lastFrames = bott.TxFrames
		if now > upAt && cfg.Blackout > 0 && recovery < 0 {
			if float64(delta) >= winBytes {
				if streak == 0 {
					streakStart = now - utilWindow
				}
				streak++
				if streak >= recoverRun {
					recovery = streakStart - upAt
					if recovery < 0 {
						recovery = 0
					}
				}
			} else {
				streak = 0
			}
		}
		if now < end {
			e.Sim.After(utilWindow, utilTick)
		}
	}
	e.Sim.After(utilWindow, utilTick)

	// Post-fault queue peak at 100us granularity (Port.MaxQueue is
	// all-time and would report the blackout pile-up instead).
	postPeak := 0
	var qTick func()
	qTick = func() {
		if q := bott.QueueBytes(); q > postPeak {
			postPeak = q
		}
		if e.Sim.Now() < end {
			e.Sim.After(100*sim.Microsecond, qTick)
		}
	}
	e.Sim.At(upAt, qTick)

	var tailBase int64
	e.Sim.At(upAt, func() {
		for _, f := range fs {
			tailBase += f.conn.Received()
		}
	})

	e.Sim.RunUntil(end)

	pt := RobustnessPoint{Proto: cfg.Proto, Scenario: cfg.Name, Recovery: recovery, PostQPeak: postPeak}
	var total int64
	for _, f := range fs {
		total += f.conn.Received()
		st := f.conn.Sender.Stats()
		pt.RtxBytes += st.RtxBytes
		pt.Timeouts += st.Timeouts
	}
	pt.Goodput = float64(total-tailBase) * 8 / cfg.Tail.Seconds()
	pt.Drops = bott.Drops + recv.NIC().Drops
	pt.Events = e.Sim.Executed()
	return pt
}

// FormatRobustness renders the comparison table.
func FormatRobustness(rs []RobustnessPoint) string {
	t := stats.Table{
		Title: "Failure recovery (beyond-paper: §4 robustness under injected faults)",
		Header: []string{"scenario", "proto", "recovery(ms)", "postQpeak(KB)",
			"goodput(Mbps)", "rtx(KB)", "timeouts", "drops"},
	}
	for _, r := range rs {
		rec := "-"
		if r.Recovery >= 0 {
			rec = stats.F(r.Recovery.Seconds()*1e3, 1)
		}
		t.AddRow(r.Scenario, string(r.Proto), rec,
			stats.F(float64(r.PostQPeak)/1024, 1), stats.Mbps(r.Goodput),
			stats.F(float64(r.RtxBytes)/1024, 1),
			fmt.Sprint(r.Timeouts), fmt.Sprint(r.Drops))
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("expected: TFC survives blackouts with bounded delimiter-miss backoff, recovering within one MinRTO (short cut) or off the preserved backlog's ACK clock (long cut) at a fraction of TCP's retransmitted bytes and with no full-buffer overshoot; under sustained wire loss the zero-queue design shows its cost — TFC's small windows leave no dup-ACK cushion, so every burst stalls a flow for a full RTO where deep-window TCP rides fast retransmit\n")
	return b.String()
}
