package main

import "time"

// now is the benchmark's only host-clock read: every phase timing, span
// edge and injected engine clock goes through it, so the wall-clock
// exemption below is the single one in this package.
func now() time.Time {
	return time.Now() //tfcvet:allow wallclock — benchmark harness measures host time, never feeds simulation state
}

// nowNs is now as the int64 nanosecond clock sim.Group.SetClock expects.
func nowNs() int64 { return now().UnixNano() }
