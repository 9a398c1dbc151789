// Package exp is an analysistest fixture for the simtime analyzer.
// Its import path (tfcsim/internal/exp) sits inside the simulation
// boundary, so any use of package time must be flagged.
package exp

import "time"

func bad() {
	var d time.Duration // want "uses time.Duration"
	_ = d
	_ = time.Now()           // want "uses time.Now"
	_ = 5 * time.Millisecond // want "uses time.Millisecond"
	var t time.Time          // want "uses time.Time"
	_ = t
}

func annotated() {
	//tfcvet:allow simtime — fixture: interop with a wall-clock API at the boundary
	var d time.Duration
	_ = d
}

// virtualTime shows the approved shape: durations as plain integers on
// the simulator clock (sim.Time in real code).
func virtualTime(now int64) int64 { return now + 5_000_000 }
