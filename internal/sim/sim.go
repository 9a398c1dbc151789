// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as integer nanoseconds and executes events
// in (time, insertion-order) order, which makes every run bit-for-bit
// reproducible for a given seed. All simulation entities (links, switches,
// transport endpoints, workload generators) schedule callbacks through a
// single Simulator instance; the engine is strictly single-threaded.
//
// The hot path is allocation-free in steady state: the pending-event queue
// is a concrete 4-ary min-heap of *timerNode (no interface boxing, no
// container/heap dispatch), fired and cancelled nodes are recycled through
// a per-Simulator free list, and high-frequency callers can schedule an
// EventTarget instead of a closure so that nothing is allocated per event.
// Generation counters keep Timer handles safe across recycling: Stop and
// Active on a handle whose node has been reused are harmless no-ops.
//
// On top of the heap sits a timer-wheel fast path for the dominant
// fixed-delay event classes (frame serialization, link propagation,
// delimiter timers): relative deadlines scheduled through ScheduleAfter /
// After are routed to a per-delay FIFO lane instead of the heap. Because
// virtual time never moves backwards, all events of one fixed delay are
// scheduled in non-decreasing (time, seq) order, so each lane is a plain
// ring buffer with O(1) push and pop — no sifting. The dispatcher takes
// the global minimum over the heap root and the lane heads with the exact
// (time, seq) tie-break the heap alone used, so the execution order (and
// with it every simulation output) is byte-identical to the heap-only
// engine; see TestLaneHeapEquivalence and FuzzTimerWheel.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time/time.Duration so
// that wall-clock APIs cannot leak into simulated code.
type Time int64

// Convenient duration units, expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an adaptive unit, e.g. "153.2us".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Millis())
	default:
		return fmt.Sprintf("%.6gs", t.Seconds())
	}
}

// EventTarget is the closure-free scheduling interface. High-frequency
// callers (the network forwarding path schedules two events per packet per
// hop) implement RunEvent on a pooled carrier struct and pass it to
// Schedule/ScheduleAfter, avoiding the per-event closure allocations that
// At/After cost.
type EventTarget interface {
	RunEvent()
}

// funcEvent adapts the closure of At/After to the one event
// representation. A func value is pointer-shaped, so converting it to the
// interface does not allocate (TestFuncEventNoAlloc).
type funcEvent func()

// RunEvent implements EventTarget.
func (f funcEvent) RunEvent() { f() }

// timerNode is one pending-queue entry. Nodes are owned by the Simulator
// and recycled through its free list after they fire or their cancelled
// entry is popped; Timer handles reference them together with the
// generation captured at scheduling time.
type timerNode struct {
	at Time
	// schedAt is the virtual time at which the node was scheduled. For
	// nodes scheduled by the owning simulator it equals now-at-schedule, so
	// ordering by (at, schedAt, rank, seq) is identical to (at, rank, seq)
	// — seq is monotone in schedule time. The sharded engine stamps
	// mailbox events with the sender shard's schedule instant instead,
	// which restores the sequential engine's insertion order for
	// cross-shard arrivals.
	schedAt Time
	seq     uint64
	gen     uint64
	target  EventTarget
	owner   *Simulator // for live-count accounting on Timer.Stop
	index   int32      // heap index; laneIndex while queued in a lane, -1 once popped
	// rank canonically orders events that collide on both at and schedAt:
	// smaller rank runs first, NeutralRank (-1) before any ranked event,
	// equal ranks by seq. Callers whose same-instant emissions must
	// execute in an engine-independent order (link deliveries, ranked by
	// the receiving port) schedule through ScheduleAfterRank; everything
	// else stays neutral and keeps the historic insertion order.
	rank    int32
	stopped bool
}

// NeutralRank is the rank of events scheduled without an explicit rank.
// Neutral events order before ranked ones at the same (at, schedAt) and
// among themselves by insertion sequence, preserving the engine's
// historic tie-break wherever ranks are not in play.
const NeutralRank int32 = -1

// laneIndex marks a node queued in a fixed-delay lane rather than the
// heap. It is distinct from -1 (popped) so Timer.Stop/Active treat lane
// nodes as pending.
const laneIndex int32 = -2

// Timer is a cancellable handle to a scheduled event. It is a small value
// (copy freely); the zero value is inert: Stop reports false and Active
// reports false. A handle outliving its event is safe — once the event has
// fired (or its cancelled node was collected) the node's generation moves
// on, and the stale handle can never affect a later event that happens to
// reuse the same node.
type Timer struct {
	n   *timerNode
	gen uint64
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// call prevented the timer from firing; stopping an already-fired,
// already-stopped, or zero timer reports false.
func (t Timer) Stop() bool {
	n := t.n
	if n == nil || n.gen != t.gen || n.stopped || n.index == -1 {
		return false
	}
	n.stopped = true
	n.owner.live--
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	n := t.n
	return n != nil && n.gen == t.gen && !n.stopped && n.index != -1
}

// When returns the virtual time at which the timer fires and whether the
// handle is still pending. ok is false exactly when Active is false — a
// stale handle (the event fired or its cancelled node was collected), a
// stopped timer, or the zero Timer — so a genuine t=0 deadline is
// distinguishable from staleness. When ok is false the returned Time is 0
// and meaningless.
func (t Timer) When() (Time, bool) {
	if !t.Active() {
		return 0, false
	}
	return t.n.at, true
}

// maxLanes bounds the number of fixed-delay lanes. The hot event classes
// (frame serialization per wire size, link propagation, delimiter timers)
// need a handful; everything past the cap falls back to the heap, which is
// always correct — lane assignment affects performance only, never order.
const maxLanes = 8

// lane is a FIFO ring of pending nodes that all share one scheduling
// delay. Because virtual time is non-decreasing, ScheduleAfter with a
// fixed delay produces non-decreasing deadlines, so the ring is sorted by
// (at, seq) by construction and push/pop are O(1) with no sifting.
type lane struct {
	delay Time
	ring  []*timerNode // power-of-two capacity
	head  int
	n     int
}

func (l *lane) push(n *timerNode) {
	if l.n == len(l.ring) {
		c := len(l.ring) * 2
		if c == 0 {
			c = 16
		}
		l.growTo(c)
	}
	mask := len(l.ring) - 1
	// Keep the ring in (at, rank, seq) order. Pushes arrive in
	// non-decreasing at (fixed delay, monotone clock) with equal schedAt
	// for equal at, so only a same-instant tail run can be out of rank
	// order; the backward scan almost always breaks on its first compare.
	i := l.n
	for i > 0 {
		prev := l.ring[(l.head+i-1)&mask]
		if prev.at != n.at || prev.rank <= n.rank {
			break
		}
		l.ring[(l.head+i)&mask] = prev
		i--
	}
	l.ring[(l.head+i)&mask] = n
	l.n++
}

func (l *lane) growTo(c int) {
	nr := make([]*timerNode, c)
	for i := 0; i < l.n; i++ {
		nr[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring = nr
	l.head = 0
}

func (l *lane) pop() *timerNode {
	n := l.ring[l.head]
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	n.index = -1
	return n
}

// Simulator owns virtual time and the pending-event queue.
type Simulator struct {
	now Time
	// events is a 4-ary min-heap ordered by (at, seq). 4-ary beats binary
	// here: sift-downs touch 4 children per level but run half the levels,
	// and the children share cache lines.
	events []*timerNode
	// lanes are the timer-wheel fast path: one FIFO ring per distinct
	// fixed delay seen on ScheduleAfter/After. A lane whose delay falls
	// out of use is repurposed once it drains.
	lanes    []lane
	laneRing int          // warm hint: initial ring capacity for new lanes
	free     []*timerNode // recycled nodes
	seq      uint64
	stopped  bool
	// live counts pending events that have not been cancelled. Pending()
	// also includes stopped-but-uncollected nodes; the RunUntil tail
	// advance must not — a queue holding only dead timers does not make
	// virtual time pass.
	live int
	// disableLanes forces every event through the heap. Test hook for the
	// lane/heap equivalence and fuzz harnesses; never set in production.
	disableLanes bool
	// group, when non-nil, marks this simulator as the control member of a
	// sharded Group: Run/RunUntil delegate to the group's epoch loop and
	// Pending/Executed aggregate across the shards.
	group *Group
	// noSchedule is set by the group around the parallel phase of an
	// epoch: scheduling into the control simulator from a shard callback
	// is a cross-shard race, and this turns it into a deterministic panic.
	noSchedule bool
	// Rand is the experiment-scoped random source. It is seeded at
	// construction so runs are reproducible.
	Rand *rand.Rand
	seed int64
	// executed counts events run so far (useful for budget guards in tests).
	executed uint64
	// dispHeap/dispLane count queue pops served by the 4-ary heap vs the
	// timer-wheel lanes (engine self-profiling; includes cancelled-node
	// collection — a pop is a pop).
	dispHeap uint64
	dispLane uint64
	// pulse, when non-nil, is the live-introspection mailbox: dispatch
	// publishes (now, executed) to it every pulseMask+1 events, and every
	// run once more when it returns.
	pulse *Pulse
}

// Pulse is a lock-free progress mailbox for live introspection. The engine
// (single writer) publishes its clock and event count periodically from the
// dispatch loop; an observer goroutine (the obs HTTP server) reads the
// atomics without pausing the run. The published pair is a sample, not a
// transaction: the two fields may be up to pulseMask+1 events apart.
type Pulse struct {
	now      atomic.Int64
	executed atomic.Uint64
}

// Load returns the most recently published (virtual time, executed events)
// sample. Safe from any goroutine.
func (p *Pulse) Load() (Time, uint64) {
	return Time(p.now.Load()), p.executed.Load()
}

// pulseMask makes dispatch publish every 1024 events: cheap enough to be
// invisible, fresh enough for a 1 Hz dashboard.
const pulseMask = 1<<10 - 1

// SetPulse attaches (or, with nil, detaches) the progress mailbox.
func (s *Simulator) SetPulse(p *Pulse) { s.pulse = p }

func (s *Simulator) publishPulse() {
	if p := s.pulse; p != nil {
		p.now.Store(int64(s.now))
		p.executed.Store(s.executed)
	}
}

// DispatchStats reports how many queue pops were served by the 4-ary heap
// vs the timer-wheel lanes — the heap-vs-lane dispatch ratio the lane fast
// path exists to win. Per-simulator; the Group aggregates across shards.
func (s *Simulator) DispatchStats() (heap, lane uint64) { return s.dispHeap, s.dispLane }

// New creates a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{
		Rand:  rand.New(rand.NewSource(seed)),
		seed:  seed,
		lanes: make([]lane, 0, maxLanes),
	}
}

// Seed returns the seed the simulator was constructed with. Entities that
// need their own random stream (per-host jitter, per-port loss) derive it
// from this via SubSeed so their draws are independent of event
// interleaving — a prerequisite for sharded execution matching the
// sequential engine bit-for-bit.
func (s *Simulator) Seed() int64 { return s.seed }

// SubSeed derives an independent stream seed from a trial seed and a
// stable entity identifier (SplitMix64 finalizer).
func SubSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + (salt+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events executed so far; for the control
// simulator of a sharded Group it aggregates across every shard.
func (s *Simulator) Executed() uint64 {
	if s.group != nil {
		return s.group.executed()
	}
	return s.executed
}

// At schedules fn at absolute virtual time t. Scheduling in the past (or at
// the present) runs the event at the current time but after all events
// already queued for that time. It returns a cancellable handle.
func (s *Simulator) At(t Time, fn func()) Timer {
	return s.schedule(t, s.now, NeutralRank, funcEvent(fn))
}

// After schedules fn d nanoseconds from now. Relative deadlines take the
// lane fast path when a lane for d exists or is free (see scheduleAfter).
func (s *Simulator) After(d Time, fn func()) Timer {
	return s.scheduleAfter(d, NeutralRank, funcEvent(fn))
}

// Schedule is the allocation-free variant of At: tgt.RunEvent runs at
// absolute time t (clamped to now, FIFO among equal times, exactly like
// At). The target must stay valid until the event fires or is stopped.
func (s *Simulator) Schedule(t Time, tgt EventTarget) Timer {
	return s.schedule(t, s.now, NeutralRank, tgt)
}

// ScheduleAfter schedules tgt.RunEvent d nanoseconds from now. Relative
// deadlines take the lane fast path when a lane for d exists or is free.
// It is for fixed-delay classes (a link's propagation delay, a constant
// timeout): every distinct d holds one of the few lanes while it has
// events queued. A delay recomputed on every arm (a rate-dependent gap, a
// token deficit) belongs on Schedule(Now()+d, tgt) — same order, no lane.
func (s *Simulator) ScheduleAfter(d Time, tgt EventTarget) Timer {
	return s.scheduleAfter(d, NeutralRank, tgt)
}

// ScheduleAfterRank is ScheduleAfter with an explicit arrival rank
// (>= 0): among events colliding on both deadline and schedule instant,
// smaller ranks run first, after all neutral events. Rank must be a
// stable property of the scheduling entity (netsim uses the transmitting
// port's creation index), so that simultaneous arrivals execute in the
// same canonical order in the sequential and the sharded engine.
func (s *Simulator) ScheduleAfterRank(d Time, tgt EventTarget, rank int32) Timer {
	return s.scheduleAfter(d, rank, tgt)
}

// scheduleAfter is the relative-deadline insert. A non-negative fixed
// delay is pushed onto its lane in O(1); negative delays (clamped to now
// by the heap path) and delays past the lane cap fall back to the heap.
// Either placement yields the same execution order — the dispatcher always
// takes the global (at, schedAt, rank, seq) minimum across heap and lanes.
func (s *Simulator) scheduleAfter(d Time, rank int32, tgt EventTarget) Timer {
	if d >= 0 && !s.disableLanes {
		if l := s.laneFor(d); l != nil {
			n := s.newNode(s.now+d, s.now, rank, tgt)
			n.index = laneIndex
			l.push(n)
			return Timer{n: n, gen: n.gen}
		}
	}
	return s.schedule(s.now+d, s.now, rank, tgt)
}

// schedule is the absolute-deadline (heap) insert. schedAt is the local
// clock for everything this simulator schedules itself; the group's mail
// delivery passes the sender shard's virtual time at post instead, in
// deterministic order at an epoch barrier.
func (s *Simulator) schedule(at, schedAt Time, rank int32, tgt EventTarget) Timer {
	if at < s.now {
		at = s.now
	}
	n := s.newNode(at, schedAt, rank, tgt)
	s.push(n)
	return Timer{n: n, gen: n.gen}
}

// laneFor returns the lane for delay d, creating or repurposing one if
// possible, or nil when every lane is occupied by another delay. The
// policy only ever consults deterministic simulator state, so lane
// assignment is itself reproducible run-to-run.
func (s *Simulator) laneFor(d Time) *lane {
	empty := -1
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.delay == d {
			return l
		}
		if l.n == 0 && empty < 0 {
			empty = i
		}
	}
	if len(s.lanes) < maxLanes {
		c := s.laneRing
		if c < 16 {
			c = 16
		}
		s.lanes = append(s.lanes, lane{delay: d, ring: make([]*timerNode, c)})
		return &s.lanes[len(s.lanes)-1]
	}
	if empty >= 0 {
		// A drained lane's delay fell out of use (one-shot jitter values,
		// rate changes): hand its ring to the new delay.
		l := &s.lanes[empty]
		l.delay = d
		return l
	}
	return nil
}

// newNode takes a node from the free list (or allocates one) and stamps
// it with the next sequence number.
func (s *Simulator) newNode(at, schedAt Time, rank int32, tgt EventTarget) *timerNode {
	if s.noSchedule {
		panic("sim: schedule on the control simulator during a parallel shard phase (cross-shard coupling)")
	}
	var n *timerNode
	if k := len(s.free) - 1; k >= 0 {
		n = s.free[k]
		s.free[k] = nil
		s.free = s.free[:k]
	} else {
		n = &timerNode{}
	}
	n.at = at
	n.schedAt = schedAt
	n.seq = s.seq
	n.target = tgt
	n.owner = s
	n.rank = rank
	n.stopped = false
	s.seq++
	s.live++
	return n
}

// recycle returns a popped node to the free list. Bumping the generation
// invalidates every outstanding handle to the node before it is reused.
func (s *Simulator) recycle(n *timerNode) {
	n.target = nil
	n.gen++
	s.free = append(s.free, n)
}

// timerLess orders nodes by (at, schedAt, rank, seq). For neutral-rank
// nodes of one simulator this is identical to the historic (at, seq)
// order — seq is monotone in schedule time, so schedAt can only agree
// with it — but it lets cross-shard mailbox arrivals (whose seq is
// assigned late, at the epoch barrier) slot into the position the
// sequential engine would have given them, and it gives same-instant
// ranked events (simultaneous link deliveries) a canonical order that
// does not depend on which engine — or which shard — produced them.
func timerLess(a, b *timerNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// push inserts n, sifting up through 4-ary parents.
func (s *Simulator) push(n *timerNode) {
	h := append(s.events, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = n
	n.index = int32(i)
	s.events = h
}

// popMin removes and returns the earliest node.
func (s *Simulator) popMin() *timerNode {
	h := s.events
	top := h[0]
	top.index = -1
	last := len(h) - 1
	n := h[last]
	h[last] = nil
	h = h[:last]
	s.events = h
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= last {
			break
		}
		m := c
		end := c + 4
		if end > last {
			end = last
		}
		for j := c + 1; j < end; j++ {
			if timerLess(h[j], h[m]) {
				m = j
			}
		}
		if !timerLess(h[m], n) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = n
	n.index = int32(i)
	return top
}

// Stop makes Run/RunUntil return after the current event completes. A
// Stop issued while no run is in progress is remembered: the next
// Run/RunUntil consumes it and returns immediately without executing
// anything. For the control simulator of a sharded Group, a mid-run Stop
// takes effect at the next epoch barrier (shards finish their current
// window first).
func (s *Simulator) Stop() { s.stopped = true }

// maxTime is the largest end Run passes to RunUntil; chosen below the
// int64 ceiling so end+1 arithmetic cannot overflow.
const maxTime = Time(1<<62 - 1)

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() { s.RunUntil(maxTime) }

// RunUntil executes events with timestamps <= end (or until the queue
// drains, or Stop). The contract for Now() on return:
//
//   - live events remain past end: Now() == end (virtual time passed even
//     though nothing fired in the tail). Cancelled-but-uncollected timers
//     do not count: a queue holding only dead timers behaves like an
//     empty one;
//   - the queue drained before end: Now() stays at the last executed
//     event — an idle simulation does not invent the passage of time, so
//     measurements like goodput over Now() reflect actual activity;
//   - Stop() was called before the run: nothing executes, Now() is
//     unchanged, and the stop request is consumed;
//   - Stop() was called mid-run: Now() stays at the stopping event, and
//     the next Run/RunUntil resumes normally.
func (s *Simulator) RunUntil(end Time) {
	if g := s.group; g != nil {
		g.runUntil(end)
		s.publishPulse()
		return
	}
	if s.stopped {
		// Honor a Stop issued between runs (or before the first).
		s.stopped = false
		return
	}
	stopBefore := end + 1
	if stopBefore < end {
		stopBefore = end // saturate: caller passed the int64 ceiling
	}
	s.runCore(stopBefore)
	if s.now < end && !s.stopped && s.live > 0 {
		s.now = end
	}
	// A mid-run stop is consumed here so the next run resumes.
	s.stopped = false
}

// dispatch is the engine's one event loop; the run loop, the sharded
// group's peek and its single step are this function under three budgets.
// It executes pending events in (at, schedAt, rank, seq) order, collecting
// the cancelled nodes it meets at the front without counting them, until
// budget events have run (a negative budget is none), the earliest pending
// node is at or past stopBefore, the queue drains, or an event calls Stop.
// When it is the budget that ran out it returns the live event it stopped
// in front of — with budget 0, a peek at the next event that will actually
// fire — and nil otherwise.
func (s *Simulator) dispatch(stopBefore Time, budget int) *timerNode {
	for {
		// Head: the global minimum across the heap root and the lane heads,
		// under the heap's own order. Each lane is internally sorted, so its
		// head is its minimum; the scan is over at most maxLanes+1 candidates.
		var n *timerNode
		li := -1
		if len(s.events) > 0 {
			n = s.events[0]
		}
		for i := range s.lanes {
			l := &s.lanes[i]
			if l.n == 0 {
				continue
			}
			if h := l.ring[l.head]; n == nil || timerLess(h, n) {
				n, li = h, i
			}
		}
		if n == nil || n.at >= stopBefore {
			return nil
		}
		if budget == 0 && !n.stopped {
			return n
		}
		// Take: a pop is a pop, of a live node or a cancelled one.
		if li < 0 {
			s.popMin()
			s.dispHeap++
		} else {
			s.lanes[li].pop()
			s.dispLane++
		}
		if n.stopped {
			s.recycle(n)
			continue
		}
		// Fire. Recycle before invoking: outstanding handles are already
		// dead (generation bumped), and the callback may schedule fresh
		// events straight into the node we just returned.
		budget--
		s.live--
		s.now = n.at
		s.executed++
		if s.executed&pulseMask == 0 {
			s.publishPulse()
		}
		tgt := n.target
		s.recycle(n)
		tgt.RunEvent()
		if s.stopped {
			return nil
		}
	}
}

// unbounded is dispatch's stopBefore for callers without a time bound.
const unbounded = Time(1<<63 - 1)

// runCore executes events with timestamps strictly below stopBefore, or
// until the queue drains or Stop. It never advances now past the last
// executed event; RunUntil layers the tail-advance contract on top, and
// the sharded group drives one window [now, stopBefore) per epoch.
func (s *Simulator) runCore(stopBefore Time) {
	if !s.stopped { // the group hands windows to a shard whose Stop it has yet to see
		s.dispatch(stopBefore, -1)
	}
	s.publishPulse()
}

// peekLive returns the (at, schedAt, rank) of the earliest live pending
// event. Cancelled nodes uncovered at the front are collected on the way
// — the same discard the run loop performs — so the reported time is the
// time of an event that will actually fire. ok is false when nothing live
// is queued.
func (s *Simulator) peekLive() (at, schedAt Time, rank int32, ok bool) {
	if n := s.dispatch(unbounded, 0); n != nil {
		return n.at, n.schedAt, n.rank, true
	}
	return 0, 0, 0, false
}

// runOne executes exactly the earliest live event (the group's merged
// same-instant step, which has established via peekLive that one exists).
func (s *Simulator) runOne() { s.dispatch(unbounded, 1) }

// advanceTo moves virtual time forward to t (never backward). The group
// uses it to line shard clocks up at epoch barriers.
func (s *Simulator) advanceTo(t Time) {
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of queued (possibly stopped) events across
// the heap and the lanes; for the control simulator of a sharded Group it
// aggregates across every shard. See Live for the count excluding
// cancelled timers.
func (s *Simulator) Pending() int {
	if s.group != nil {
		return s.group.pending()
	}
	return s.pendingLocal()
}

func (s *Simulator) pendingLocal() int {
	n := len(s.events)
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}

// Live returns the number of queued events that have not been cancelled —
// the events that will actually fire. Group-aware like Pending.
func (s *Simulator) Live() int {
	if s.group != nil {
		return s.group.live()
	}
	return s.live
}

// Warm pre-sizes the engine's memory so a subsequent run whose pending
// set stays within the given bounds allocates nothing: the free-node list
// grows to nodes spare timer nodes, the heap to matching capacity, and
// every lane ring — current and future — to at least ringCap slots
// (rounded up to a power of two). Intended for benchmarks and
// latency-sensitive callers; a cold simulator grows on demand instead.
func (s *Simulator) Warm(nodes, ringCap int) {
	for len(s.free) < nodes {
		s.free = append(s.free, &timerNode{})
	}
	if cap(s.events) < nodes {
		ne := make([]*timerNode, len(s.events), nodes)
		copy(ne, s.events)
		s.events = ne
	}
	rc := 16
	for rc < ringCap {
		rc <<= 1
	}
	if rc > s.laneRing {
		s.laneRing = rc
	}
	for i := range s.lanes {
		if l := &s.lanes[i]; len(l.ring) < rc {
			l.growTo(rc)
		}
	}
}
