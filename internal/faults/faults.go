// Package faults schedules deterministic fault injection against a
// running simulation: link blackouts that keep the queue, and bursty
// Gilbert–Elliott wire loss from a given time to the end of the run —
// the two faults exp.Robustness injects. Every fault is driven off the
// simulator's clock and (for loss) the port's per-trial loss stream, so
// an injected failure scenario is a pure function of the trial seed and
// experiment outputs stay byte-identical at any parallelism. The package
// is internal: in-module runners such as exp.Robustness drive it.
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
	Kind   string // "link-down", "link-up" or "loss-on"
	Target string // port label
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
	// telemetry layer pairs link-down/link-up into trace spans).
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

// LinkDown blacks out the given ports at time at for duration dur. Each
// port's queued backlog is preserved and drains on restore (a pulled-and-
// replugged cable). dur <= 0 leaves the link down for the rest of the
// run. A full-duplex cable is a pair of ports — pass both to cut traffic
// in both directions.
func (f *Scheduler) LinkDown(at, dur sim.Time, ports ...*netsim.Port) {
	f.sim.At(at, func() {
		for _, p := range ports {
			p.SetDown()
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

// BurstyLoss installs loss model m on port at time at, for the rest of
// the run. The model draws randomness from the port's loss stream only,
// keeping the loss pattern a function of the trial seed.
func (f *Scheduler) BurstyLoss(at sim.Time, port *netsim.Port, m netsim.LossModel) {
	f.sim.At(at, func() {
		port.LossModel = m
		f.record("loss-on", port.Label)
	})
}
