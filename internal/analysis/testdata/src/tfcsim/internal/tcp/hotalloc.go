// Package tcp is an analysistest fixture for the hotalloc analyzer. Its
// import path (tfcsim/internal/tcp) sits under the
// TestEngineThroughputAllocs/TestSteadyStateAllocs allocation gates, so
// event-reachable code must be free of the six allocating shapes:
// explicit allocations (&T{...}, new, make), escaping closures, bound
// method values, fmt calls, ...interface{} boxing, and un-presized
// appends.
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
	var arr [8]int64
	buf := arr[:0]
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

// flowEvt seeds the explicit allocations: a fresh record per event, the
// shape a per-flow table takes when its free list is forgotten.
type flowEvt struct {
	flows map[int64]*flowRec
	free  []*flowRec
}

type flowRec struct{ bytes int64 }

func (e *flowEvt) RunEvent() {
	e.flows[1] = &flowRec{}            // want "&T\\{...\\} allocates in event-reachable RunEvent"
	e.flows[2] = new(flowRec)          // want "new allocates in event-reachable RunEvent"
	e.flows = make(map[int64]*flowRec) // want "make allocates in event-reachable RunEvent"
	e.flows[3] = e.take()
}

// take is the approved shape: the free list serves the steady state, and
// its miss path carries the directive.
func (e *flowEvt) take() *flowRec {
	if k := len(e.free) - 1; k >= 0 {
		r := e.free[k]
		e.free = e.free[:k]
		return r
	}
	//tfcvet:allow hotalloc — fixture: free-list miss, once per concurrently tracked flow
	return new(flowRec)
}

// host shows the Send root: transports call it from another package, so
// no RunEvent in this one reaches it.
type host struct{ s *sim.Simulator }

func (h *host) Send(seq int64) {
	h.s.After(1, func() { _ = seq }) // want "closure escapes in event-reachable Send"
}

// ring is a generic queue: a call through any instantiation reaches the
// declared methods, so the unannotated growth is flagged and the
// annotated one certified.
type ring[T any] struct{ buf []T }

func (r *ring[T]) push(v T) {
	if len(r.buf) == cap(r.buf) {
		r.grow()
	}
	r.buf = r.buf[:len(r.buf)+1]
	r.buf[len(r.buf)-1] = v
}

func (r *ring[T]) grow() {
	nb := make([]T, len(r.buf), 2*cap(r.buf)+1) // want "make allocates in event-reachable grow"
	copy(nb, r.buf)
	r.buf = nb
}

func (r *ring[T]) pushAmortized(v T) {
	if len(r.buf) == cap(r.buf) {
		//tfcvet:allow hotalloc — fixture: doubling growth, amortized to the deepest backlog
		nb := make([]T, len(r.buf), 2*cap(r.buf)+1)
		copy(nb, r.buf)
		r.buf = nb
	}
	r.buf = r.buf[:len(r.buf)+1]
	r.buf[len(r.buf)-1] = v
}

type queueEvt struct {
	q  ring[int64]
	pq ring[*flowRec]
}

func (e *queueEvt) RunEvent() {
	e.q.push(1)
	e.pq.pushAmortized(nil)
}
