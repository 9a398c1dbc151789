package telemetry_test

// The observatory tests that drive a trial through internal/exp, which
// imports telemetry and so cannot be imported by an in-package test.

import (
	"context"
	"testing"

	"tfcsim/internal/exp"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// TestTrialDoneWhenCellReturns: a trial counts as done as soon as its
// Sweep cell returns, not only at its run's export or FinishRun — the
// liveness watchdog would otherwise flag every trial that finishes long
// before its run's last one.
func TestTrialDoneWhenCellReturns(t *testing.T) {
	o := telemetry.NewObservatory(telemetry.ObsOptions{Watchdogs: true, FlightDir: "-"})
	c := telemetry.NewCollector(telemetry.Options{})
	o.Attach("run", c)
	cells := exp.PerProto(exp.TopoConfig{}, []exp.Proto{exp.TCP, exp.TFC})
	_, err := exp.Sweep(context.Background(), &runner.Pool{Parallelism: 1, Seed: 1}, c,
		cells, exp.ProtoKey, func(cfg exp.TopoConfig) uint64 {
			e := exp.Testbed(cfg)
			e.Sim.RunUntil(sim.Millisecond)
			return e.Sim.Executed()
		})
	if err != nil {
		t.Fatal(err)
	}
	trials := telemetry.DoneTrials(o)
	if len(trials) != len(cells) {
		t.Fatalf("observatory holds %d trials, want %d", len(trials), len(cells))
	}
	for key, done := range trials {
		if !done {
			t.Errorf("trial %s: its cell returned, but it is not done before FinishRun", key)
		}
	}
	o.FinishRun("run")
}
