// Package transport holds what every transport protocol shares: the
// reliable-delivery core each sender embeds (Reliable: sequence/ACK
// bookkeeping, handshake and FIN, RTO with backoff, retransmission), the
// cumulative-ACK Receiver, RFC 6298 RTT estimation, in-order reassembly,
// per-flow statistics, flow-ID allocation, and the registry through which
// the harness dials any protocol by name.
package transport

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Default protocol parameters.
const (
	DefaultRcvWnd  = 4 << 20 // 4 MB advertised window
	DefaultInitRTO = 3 * sim.Millisecond
)

// RTTEstimator implements the RFC 6298 SRTT/RTTVAR retransmission-timeout
// computation with configurable clamps. The zero value is unusable; create
// with NewRTTEstimator.
type RTTEstimator struct {
	srtt, rttvar sim.Time
	valid        bool
	minRTO       sim.Time
	maxRTO       sim.Time
	initRTO      sim.Time
}

// NewRTTEstimator builds an estimator with the given RTO clamps. Zero
// arguments select the defaults (min as given, max MaxRTO, initial 3 ms —
// scaled for data-center RTTs).
func NewRTTEstimator(minRTO, maxRTO, initRTO sim.Time) *RTTEstimator {
	if maxRTO == 0 {
		maxRTO = MaxRTO
	}
	if initRTO == 0 {
		initRTO = DefaultInitRTO
	}
	if initRTO < minRTO {
		initRTO = minRTO
	}
	if initRTO > maxRTO {
		// A max clamp tighter than the initial RTO must bound it too, or
		// RTO() exceeds maxRTO until the first sample arrives.
		initRTO = maxRTO
	}
	return &RTTEstimator{minRTO: minRTO, maxRTO: maxRTO, initRTO: initRTO} //tfcvet:allow hotalloc — once per connection, from Reliable.Init
}

// Observe records one RTT sample (callers must apply Karn's rule first).
func (e *RTTEstimator) Observe(rtt sim.Time) {
	if rtt <= 0 {
		rtt = 1
	}
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
		return
	}
	// RFC 6298: RTTVAR = 3/4 RTTVAR + 1/4 |SRTT-R'|, SRTT = 7/8 SRTT + 1/8 R'.
	d := e.srtt - rtt
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

// SRTT returns the smoothed RTT (0 until the first sample).
func (e *RTTEstimator) SRTT() sim.Time {
	if !e.valid {
		return 0
	}
	return e.srtt
}

// RTO returns the current retransmission timeout.
func (e *RTTEstimator) RTO() sim.Time {
	if !e.valid {
		return e.initRTO
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.minRTO {
		rto = e.minRTO
	}
	if rto > e.maxRTO {
		rto = e.maxRTO
	}
	return rto
}

// Stats aggregates the lifetime of one flow.
type Stats struct {
	Start      sim.Time // when the application opened the flow
	FirstSend  sim.Time // first data transmission
	Completed  sim.Time // all bytes acknowledged (valid when Done)
	Done       bool
	BytesAcked int64
	Timeouts   int64 // RTO expirations
	FastRtx    int64 // fast retransmits
	RtxBytes   int64 // retransmitted bytes
}

// FCT returns the flow completion time (Completed - Start). It is only
// meaningful when Done.
func (s *Stats) FCT() sim.Time { return s.Completed - s.Start }

type seg struct {
	start, end int64 // [start, end)
}

// Reassembly tracks received byte ranges and the next in-order byte,
// implementing cumulative-ACK semantics with out-of-order buffering.
type Reassembly struct {
	next int64
	segs []seg // sorted, non-overlapping, all beyond next
}

// Next returns the next expected in-order byte (the cumulative ACK value).
func (r *Reassembly) Next() int64 { return r.next }

// Buffered returns the number of bytes held out of order.
func (r *Reassembly) Buffered() int64 {
	var n int64
	for _, s := range r.segs {
		n += s.end - s.start
	}
	return n
}

// Add records receipt of [start, start+n) and returns the new cumulative
// next-expected byte. Duplicate and overlapping data is tolerated.
func (r *Reassembly) Add(start int64, n int) int64 {
	if n <= 0 {
		return r.next
	}
	end := start + int64(n)
	if end <= r.next {
		return r.next // fully duplicate
	}
	if start <= r.next && len(r.segs) == 0 {
		// In-order fast path: nothing buffered, the segment extends the
		// contiguous prefix directly.
		r.next = end
		return r.next
	}
	if start < r.next {
		start = r.next
	}
	// Insert/merge [start, end) into segs. The first candidate is found by
	// a linear scan: the list holds one entry per hole, a handful at most.
	i := 0
	for i < len(r.segs) && r.segs[i].end < start {
		i++
	}
	merged := seg{start, end}
	j := i
	for j < len(r.segs) && r.segs[j].start <= merged.end {
		merged.start = min(merged.start, r.segs[j].start)
		merged.end = max(merged.end, r.segs[j].end)
		j++
	}
	// Splice merged over segs[i:j] in place. The backing array only ever
	// grows (doubling, when a new hole finds it full), so a receiver in
	// steady state (bounded out-of-order window) never allocates here
	// after the first few adds.
	if j == i {
		// No overlap: open a hole at i.
		n := len(r.segs)
		if n == cap(r.segs) {
			//tfcvet:allow hotalloc — doubling growth, amortized to the widest out-of-order window
			grown := make([]seg, n, 2*n+4)
			copy(grown, r.segs)
			r.segs = grown
		}
		r.segs = r.segs[:n+1]
		copy(r.segs[i+1:], r.segs[i:n])
		r.segs[i] = merged
	} else {
		r.segs[i] = merged
		k := copy(r.segs[i+1:], r.segs[j:])
		r.segs = r.segs[:i+1+k]
	}
	// Advance next over any now-contiguous prefix, compacting in place to
	// keep the slice capacity (segs[1:] would strand it).
	adv := 0
	for adv < len(r.segs) && r.segs[adv].start <= r.next {
		if r.segs[adv].end > r.next {
			r.next = r.segs[adv].end
		}
		adv++
	}
	if adv > 0 {
		k := copy(r.segs, r.segs[adv:])
		r.segs = r.segs[:k]
	}
	return r.next
}

// IDGen allocates unique FlowIDs for one experiment.
type IDGen struct{ next netsim.FlowID }

// Next returns a fresh flow ID (starting at 1; 0 is reserved/invalid).
func (g *IDGen) Next() netsim.FlowID {
	g.next++
	return g.next
}

// Sender is the interface workloads use to drive any protocol's sender.
type Sender interface {
	// Open initiates the connection handshake. It must be called once,
	// from simulation context.
	Open()
	// Send appends n bytes to the stream (may be called repeatedly; the
	// connection persists, enabling on-off flows).
	Send(n int64)
	// Acked returns the cumulative acknowledged byte count.
	Acked() int64
	// Queued returns the total bytes handed to Send so far.
	Queued() int64
	// Stats exposes the flow's statistics record.
	Stats() *Stats
	// Close sends a FIN once all queued data is acknowledged (or now, if
	// it already is). Further Sends are invalid.
	Close()
}

// LazyTimer is a lazily re-armed deadline timer. Arming it merely records
// the new deadline; the underlying simulator timer is only (re)scheduled
// when none is pending or when it fires early, so an ACK-clocked sender
// re-arming its retransmission timeout on every ACK creates O(1) live
// timer entries per RTO period instead of one per ACK. Every sender's RTO
// runs on one, and so does BFC's pause timeout (refreshed by every XOF).
type LazyTimer struct {
	s        *sim.Simulator
	fn       func()
	deadline sim.Time
	timer    sim.Timer
	armed    bool
}

// NewLazyTimer creates a timer that runs fn when an armed deadline expires.
func NewLazyTimer(s *sim.Simulator, fn func()) *LazyTimer {
	return &LazyTimer{s: s, fn: fn} //tfcvet:allow hotalloc — once per connection, from Reliable.Init
}

// Deadline returns the currently armed deadline (meaningful only while
// the timer is armed). Tests use it to check the arming arithmetic.
func (t *LazyTimer) Deadline() sim.Time { return t.deadline }

// Arm (re)sets the timer to fire d from now.
func (t *LazyTimer) Arm(d sim.Time) {
	t.deadline = t.s.Now() + d
	t.armed = true
	if w, ok := t.timer.When(); ok {
		// A pending timer firing at or before the deadline will re-check
		// and re-schedule itself; one firing later must be replaced.
		if w <= t.deadline {
			return
		}
		t.timer.Stop()
	}
	t.schedule()
}

// schedule arms the underlying simulator timer. The LazyTimer itself is
// the event target, so re-arming never allocates a closure.
func (t *LazyTimer) schedule() {
	t.timer = t.s.Schedule(t.deadline, t)
}

// RunEvent implements sim.EventTarget.
func (t *LazyTimer) RunEvent() { t.onFire() }

func (t *LazyTimer) onFire() {
	if !t.armed {
		return
	}
	if now := t.s.Now(); now < t.deadline {
		t.schedule() // deadline moved later; keep waiting
		return
	}
	t.armed = false
	t.fn()
}

// Stop disarms the timer (a pending underlying timer becomes a no-op).
func (t *LazyTimer) Stop() { t.armed = false }

// Armed reports whether a deadline is pending.
func (t *LazyTimer) Armed() bool { return t.armed }

// PopHead pops the oldest element of a FIFO kept as a slice plus a head
// index — the live elements are q[head:], a push is a plain append — and
// returns the updated pair. It slides the remainder down once the popped
// prefix is at least half the slice, so a pop is O(1) amortized however
// long the queue stays non-empty, and a drained queue resets to empty. The
// switch-side hold queues (TFC's delayed ACKs, the credit shaper's
// credits) pop through it.
func PopHead[T any](q []T, head int) (T, []T, int) {
	var zero T
	v := q[head]
	q[head] = zero
	head++
	if 2*head >= len(q) {
		n := copy(q, q[head:])
		clear(q[n:])
		q, head = q[:n], 0
	}
	return v, q, head
}
