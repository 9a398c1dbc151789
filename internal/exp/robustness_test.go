package exp

import (
	"context"
	"testing"

	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
)

// TestRobustnessTFCRecoversFromBlackout pins the acceptance property of
// the fault-injection work: after a multi-RTO blackout of the bottleneck,
// TFC returns to >= 90% bottleneck utilization within the tail — the
// delimiter-miss backoff stays capped and sender RTO backoff does not run
// away.
func TestRobustnessTFCRecoversFromBlackout(t *testing.T) {
	cfg := RobustnessConfig{
		Flows:         8,
		Warmup:        50 * sim.Millisecond,
		FaultScenario: FaultScenario{Blackout: 500 * sim.Millisecond},
		Tail:          500 * sim.Millisecond,
	}
	cfg.Proto = TFC
	cfg.Seed = 1
	pt := Robustness(cfg)
	if pt.Recovery < 0 {
		t.Fatalf("TFC never recovered to 90%% utilization within %v tail", cfg.Tail)
	}
	if pt.Recovery > 450*sim.Millisecond {
		t.Fatalf("TFC recovery %v leaves no sustained post-recovery stretch", pt.Recovery)
	}
	// No RTO collapse: at most a handful of backoff steps per flow even
	// through a 500ms outage (the capped backoff keeps retry cadence sane).
	if pt.Timeouts > int64(cfg.Flows*8) {
		t.Fatalf("%d timeouts across %d flows — RTO backoff ran away", pt.Timeouts, cfg.Flows)
	}
}

// TestRobustnessShortBlackoutAllProtos checks every protocol comes back
// from a sub-RTO blackout and that the trial is deterministic in its seed.
func TestRobustnessShortBlackoutAllProtos(t *testing.T) {
	for _, proto := range AllProtos {
		cfg := RobustnessConfig{
			Flows:         4,
			Warmup:        20 * sim.Millisecond,
			FaultScenario: FaultScenario{Blackout: 5 * sim.Millisecond},
			Tail:          400 * sim.Millisecond,
		}
		cfg.Proto = proto
		cfg.Seed = 3
		pt := Robustness(cfg)
		if pt.Recovery < 0 {
			t.Errorf("%s: no recovery from a 5ms blackout", proto)
		}
		pt2 := Robustness(cfg)
		pt2.Events = pt.Events // Executed() counts are compared via the rest
		if pt != pt2 {
			t.Errorf("%s: same seed, different result:\n%+v\n%+v", proto, pt, pt2)
		}
	}
}

// TestRobustnessSweepDeterministicOrder checks the fan-out returns points
// in scenario-major cell order on the pool's one seed, independent
// of pool parallelism (the Map contract the byte-identical -j guarantee
// rides on).
func TestRobustnessSweepDeterministicOrder(t *testing.T) {
	cfg := RobustnessConfig{
		Flows:  2,
		Warmup: 10 * sim.Millisecond,
		Tail:   50 * sim.Millisecond,
	}
	cfg.Seed = 5
	scenarios := []FaultScenario{
		{Name: "b", Blackout: 2 * sim.Millisecond},
		{Name: "l", Loss: 0.05, Burst: 3},
	}
	protos := []Proto{TFC, TCP}
	var cells []RobustnessConfig
	for _, sc := range scenarios {
		cfg.FaultScenario = sc
		cells = append(cells, PerProto(cfg, protos)...)
	}
	rs, err := Sweep(context.Background(), &runner.Pool{Parallelism: 1, Seed: cfg.Seed}, nil, cells,
		func(c RobustnessConfig) string { return c.Name + "-" + string(c.Proto) }, Robustness)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		sc string
		pr Proto
	}{{"b", TFC}, {"b", TCP}, {"l", TFC}, {"l", TCP}}
	if len(rs) != len(want) {
		t.Fatalf("got %d points, want %d", len(rs), len(want))
	}
	for i, w := range want {
		if rs[i].Scenario != w.sc || rs[i].Proto != w.pr {
			t.Fatalf("point %d = (%s, %s), want (%s, %s)",
				i, rs[i].Scenario, rs[i].Proto, w.sc, w.pr)
		}
	}
	if rs[2].Drops == 0 {
		t.Error("5% bursty loss produced no drops")
	}
}
