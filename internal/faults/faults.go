// Package faults schedules deterministic fault injection against a
// running simulation: link blackouts, mid-run rate degradation, bursty
// wire loss, and host delivery stalls. Every fault is driven off the
// simulator's clock and (for stochastic loss) the simulator's per-trial
// RNG, so an injected failure scenario is a pure function of the trial
// seed — experiment outputs stay byte-identical at any parallelism.
package faults

import (
	"fmt"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Event records one fault transition that actually fired, for experiment
// logs and debugging.
type Event struct {
	At     sim.Time
	Kind   string // "link-down", "link-up", "rate-degrade", ...
	Target string // port label or host name
}

func (e Event) String() string {
	return fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Target)
}

// Scheduler installs faults on a simulator. All scheduling happens before
// (or during) the run on the simulator's own event loop; the Scheduler
// holds no goroutines and no clock of its own.
type Scheduler struct {
	sim *sim.Simulator
	// Probe, if set, observes every fired transition as it happens (the
	// telemetry layer pairs down/up-style transitions into trace spans).
	Probe func(Event)
}

// NewScheduler returns a fault scheduler bound to s.
func NewScheduler(s *sim.Simulator) *Scheduler {
	return &Scheduler{sim: s}
}

func (f *Scheduler) record(kind, target string) {
	if f.Probe != nil {
		f.Probe(Event{At: f.sim.Now(), Kind: kind, Target: target})
	}
}

// LinkDown blacks out the given ports at time at for duration dur. With
// flush, each port's queued backlog is discarded at cut time (a rebooting
// line card); without it the backlog is preserved and drains on restore.
// dur <= 0 leaves the link down for the rest of the run. A full-duplex
// cable is a pair of ports — pass both to cut traffic in both directions.
func (f *Scheduler) LinkDown(at, dur sim.Time, flush bool, ports ...*netsim.Port) {
	f.sim.At(at, func() {
		for _, p := range ports {
			p.SetDown(flush)
			f.record("link-down", p.Label)
		}
	})
	if dur > 0 {
		f.sim.At(at+dur, func() {
			for _, p := range ports {
				p.SetUp()
				f.record("link-up", p.Label)
			}
		})
	}
}

// DegradeRate drops port's link rate to the given value at time at and
// restores the original rate after dur (dur <= 0: degraded for the rest
// of the run). The rate captured at degrade time is the one restored, so
// stacked degradations unwind in order.
func (f *Scheduler) DegradeRate(at, dur sim.Time, port *netsim.Port, to netsim.Rate) {
	f.sim.At(at, func() {
		orig := port.Rate
		port.SetRate(to)
		f.record("rate-degrade", port.Label)
		if dur > 0 {
			f.sim.After(dur, func() {
				port.SetRate(orig)
				f.record("rate-restore", port.Label)
			})
		}
	})
}

// BurstyLoss installs a loss model on port at time at and removes it
// after dur (dur <= 0: lossy for the rest of the run). The model draws
// randomness from the simulation RNG only, keeping the loss pattern a
// function of the trial seed.
func (f *Scheduler) BurstyLoss(at, dur sim.Time, port *netsim.Port, m netsim.LossModel) {
	f.sim.At(at, func() {
		port.LossModel = m
		f.record("loss-on", port.Label)
	})
	if dur > 0 {
		f.sim.At(at+dur, func() {
			port.LossModel = nil
			f.record("loss-off", port.Label)
		})
	}
}

// PauseHost stalls h's packet delivery at time at — arriving packets are
// buffered in order and delivered in a burst on resume after dur,
// modelling a GC pause, VM migration hiccup, or scheduler stall.
// dur <= 0 pauses for the rest of the run.
func (f *Scheduler) PauseHost(at, dur sim.Time, h *netsim.Host) {
	f.sim.At(at, func() {
		h.SetPaused(true)
		f.record("host-pause", h.Name())
	})
	if dur > 0 {
		f.sim.At(at+dur, func() {
			h.SetPaused(false)
			f.record("host-resume", h.Name())
		})
	}
}
