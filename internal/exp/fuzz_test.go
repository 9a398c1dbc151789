package exp

import (
	"fmt"
	"testing"
	"time"

	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// faultDeadline bounds one fuzzed robustness trial's wall time. The
// largest schedule (8 flows, 120 ms simulated) takes well under a second;
// a hang shows as a trial that never returns.
const faultDeadline = 30 * time.Second

// FuzzFaultSchedule runs exp.Robustness over arbitrary fault schedules —
// protocol, flow count, warm-up, blackout, tail, Gilbert–Elliott loss and
// burst length, seed — and checks that the trial does not panic, returns
// within faultDeadline, and trips none of the observatory's watchdogs:
// every TFC slot keeps T finite and at least one MSS, W <= T and E >= 1
// (token conservation) with a bounded queue (zero queueing), every BFC
// XON follows an XOF, and no sender's RTO backoff reaches a storm.
func FuzzFaultSchedule(f *testing.F) {
	// The registry's four scenarios at small size: blackouts scaled to a
	// tenth, short warm-up and tail, four flows.
	for i, sc := range DefaultScenarios {
		burst := sc.Burst
		if burst == 0 {
			burst = 5
		}
		f.Add(uint8(i), uint8(3), uint64(5*sim.Millisecond), uint64(sc.Blackout/10),
			uint64(20*sim.Millisecond), uint16(sc.Loss*1000), uint8((burst-1)*10), int64(i+1))
	}
	f.Fuzz(func(t *testing.T, proto, flows uint8, warmup, blackout, tail uint64,
		lossPermille uint16, burstTenths uint8, seed int64) {
		cfg := RobustnessConfig{
			Flows:  1 + int(flows%8),
			Warmup: span(warmup, sim.Microsecond, 20*sim.Millisecond),
			Tail:   span(tail, sim.Microsecond, 50*sim.Millisecond),
			FaultScenario: FaultScenario{
				Blackout: span(blackout, 0, 50*sim.Millisecond),
				Loss:     float64(lossPermille%1000) / 1000,
				Burst:    1 + float64(burstTenths%191)/10,
			},
		}
		cfg.Proto = AllProtos[int(proto)%len(AllProtos)]
		cfg.Seed = seed
		desc := fmt.Sprintf("%s flows=%d warmup=%v blackout=%v tail=%v loss=%v burst=%v seed=%d",
			cfg.Proto, cfg.Flows, cfg.Warmup, cfg.Blackout, cfg.Tail, cfg.Loss, cfg.Burst, seed)
		o := telemetry.NewObservatory(telemetry.ObsOptions{Watchdogs: true, FlightDir: "-"})
		c := telemetry.NewCollector(telemetry.Options{})
		o.Attach("fuzz", c)
		cfg.Telemetry = c.Trial("trial")
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			Robustness(cfg)
		}()
		select {
		case p := <-done:
			if p != nil {
				t.Fatalf("%s: panic: %v", desc, p)
			}
		case <-time.After(faultDeadline):
			t.Fatalf("%s: no return within %v", desc, faultDeadline)
		}
		if v := o.Violations(); v != 0 {
			t.Fatalf("%s: %d watchdog violations (named on stderr)", desc, v)
		}
	})
}

// span maps a fuzzed value into [lo, hi]: in-range values pass through
// unchanged, so the seed corpus reads in nanoseconds.
func span(v uint64, lo, hi sim.Time) sim.Time {
	d := sim.Time(v % uint64(hi+1))
	if d < lo {
		d = lo
	}
	return d
}
