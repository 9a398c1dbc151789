// Package tcp is an analysistest fixture for the hotalloc analyzer. Its
// import path (tfcsim/internal/tcp) sits under the
// TestEngineThroughputAllocs/TestSteadyStateAllocs allocation gates, so
// event-reachable code must be free of the five allocating shapes:
// escaping closures, bound method values, fmt calls, ...interface{}
// boxing, and un-presized appends.
package tcp

import (
	"fmt"

	"tfcsim/internal/sim"
)

// retxEvt is a retransmission event whose paths seed one of each
// allocation shape — the ground-truth escapes the acceptance criteria
// require the analyzer to catch.
type retxEvt struct {
	s    *sim.Simulator
	segs []int64
	log  []string
}

func (e *retxEvt) RunEvent() {
	d := sim.Time(5)
	e.s.After(d, func() { e.fire() }) // want "closure escapes in event-reachable RunEvent"
	e.s.After(d, e.fire)              // want "method value fire bound in event-reachable RunEvent"
	e.s.ScheduleAfter(d, e)           // the resident target: nothing to bind
	e.fire()
}

// fire is reachable only through RunEvent; the analyzer must follow the
// call edge to flag its body.
func (e *retxEvt) fire() {
	e.segs = append(e.segs, 1) // want "un-presized append in event-reachable fire"
	e.trace(1, 2)
}

// trace is two hops from the root — still reachable, still hot.
func (e *retxEvt) trace(seq, ack int64) {
	e.log = append(e.log, fmt.Sprintf("retx %d/%d", seq, ack)) // want "fmt.Sprintf called in event-reachable trace" "un-presized append in event-reachable trace"
	box(seq, ack)                                              // want "box boxes arguments into ...interface"
}

// box has a ...interface{} tail: every argument boxed into it escapes.
func box(args ...interface{}) int { return len(args) }

// cold is NOT reachable from any event root: the same constructs pass.
func cold(s *sim.Simulator, xs []int64) []int64 {
	s.After(1, func() { _ = fmt.Sprint("setup") })
	s.After(1, (&flushEvt{}).RunEvent)
	xs = append(xs, 7)
	return xs
}

// presized shows the approved hot-path shapes.
type flushEvt struct{ out []int64 }

func (e *flushEvt) RunEvent() {
	buf := make([]int64, 0, 8)
	buf = append(buf, 1) // pre-sized local: no growth in steady state
	scratch := e.out[:0]
	scratch = append(scratch, buf...) // s[:0] reuse idiom re-arms the capacity
	func() { e.out = scratch }()      // immediately-invoked literal does not escape
	if len(e.out) > 1<<20 {
		panic(fmt.Sprintf("flush overflow: %d", len(e.out))) // the sim is already dead
	}
}

// annotated shows the escape hatch for amortized pool growth.
type poolEvt struct{ free []*retxEvt }

func (e *poolEvt) RunEvent() {
	//tfcvet:allow hotalloc — fixture: free-list push reuses truncation-retained capacity
	e.free = append(e.free, &retxEvt{})
}
