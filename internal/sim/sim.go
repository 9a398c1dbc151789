// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as integer nanoseconds and executes events
// in (time, insertion-order) order, which makes every run bit-for-bit
// reproducible for a given seed. All simulation entities (links, switches,
// transport endpoints, workload generators) schedule callbacks through a
// single Simulator instance; the engine is strictly single-threaded.
//
// The hot path is allocation-free in steady state: fired and cancelled
// timer nodes are recycled through a per-Simulator free list, and
// high-frequency callers can schedule an EventTarget instead of a closure
// so that nothing is allocated per event. Generation counters keep Timer
// handles safe across recycling: Stop and Active on a handle whose node
// has been reused are harmless no-ops.
//
// The pending-event queue is a timing wheel (Varghese & Lauck's hashed
// wheel, Brown's calendar queue) of wheelSlots slots, each slotWidth of
// virtual time wide. A slot is an intrusive singly linked list through
// timerNode.next, and an occupancy bitmap finds the next occupied one.
// Deadlines beyond the wheel's horizon wait in a 4-ary min-heap. When a
// slot becomes current, its nodes and any far-heap nodes of the same slot
// are gathered into one run buffer and sorted by (at, schedAt, rank, seq);
// a later schedule into that run's slot, or an earlier one, is
// insertion-sorted into it. The key fully orders events, so where a node
// waits never changes what runs when: the queue is checked against a
// sorted-slice reference in FuzzTimerWheel and FuzzTimerWheelStop.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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
	next    *timerNode // the next node in the same wheel slot
	// rank canonically orders events that collide on both at and schedAt:
	// smaller rank runs first, NeutralRank (-1) before any ranked event,
	// equal ranks by seq. Callers whose same-instant emissions must
	// execute in an engine-independent order (link deliveries, ranked by
	// the receiving port) schedule through ScheduleAfterRank; everything
	// else stays neutral and keeps the historic insertion order.
	rank    int32
	stopped bool
	far     bool // waits in the far heap (DispatchStats)
}

// NeutralRank is the rank of events scheduled without an explicit rank.
// Neutral events order before ranked ones at the same (at, schedAt) and
// among themselves by insertion sequence, preserving the engine's
// historic tie-break wherever ranks are not in play.
const NeutralRank int32 = -1

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
	if n == nil || n.gen != t.gen || n.stopped {
		return false
	}
	n.stopped = true
	n.owner.live--
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	n := t.n
	return n != nil && n.gen == t.gen && !n.stopped
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

// The wheel's geometry. A slot spans slotWidth ns of virtual time and the
// wheel wheelSlots slots, so deadlines up to ~262 us ahead (link
// propagation, serialization, pacing and most transport timers) skip the
// heap. The head array costs 8 KB per Simulator; see BenchmarkQueueSparse
// and BenchmarkQueueDense for the sizing.
const (
	slotBits   = 8
	slotWidth  = Time(1) << slotBits
	wheelBits  = 10
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	// countSortMin is the slot population above which sortRun counts:
	// below it, clearing and summing the slotWidth+1 counters costs more
	// than an insertion pass over nodes that are nearly in order.
	countSortMin = 32
)

// Simulator owns virtual time and the pending-event queue.
type Simulator struct {
	now Time
	// cur is the current slot (a deadline's slot is at>>slotBits), -1
	// until the first one. run holds its nodes, sorted, with run[runPos]
	// the next to fire; a node scheduled at or before cur joins the run.
	// cur may be ahead of now when a peek or a RunUntil bound stopped in
	// front of its first node.
	cur    int64
	run    []*timerNode
	runPos int
	spare  []*timerNode // sortRun's second buffer
	// heads[i] lists the nodes of the one slot in (cur, cur+wheelSlots)
	// with ring index i, unordered; occ has bit i set while it is
	// non-empty, and wheelN counts the listed nodes.
	heads  [wheelSlots]*timerNode
	occ    [wheelSlots / 64]uint64
	wheelN int
	// far is a 4-ary min-heap, by the same key, of the nodes scheduled
	// beyond the wheel's horizon. 4-ary beats binary here: sift-downs
	// touch 4 children per level but run half the levels, and the
	// children share cache lines.
	far     []*timerNode
	free    []*timerNode // recycled nodes
	seq     uint64
	stopped bool
	// live counts pending events that have not been cancelled. Pending()
	// also includes stopped-but-uncollected nodes; the RunUntil tail
	// advance must not — a queue holding only dead timers does not make
	// virtual time pass.
	live int
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
	// dispFar/dispWheel count queue pops of nodes that waited in the far
	// heap vs the wheel (engine self-profiling; includes cancelled-node
	// collection — a pop is a pop).
	dispFar   uint64
	dispWheel uint64
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

// DispatchStats reports how many queue pops were of nodes that waited in
// the far heap (deadlines beyond the wheel's horizon when scheduled) vs
// in the wheel. Per-simulator; the Group aggregates across shards.
func (s *Simulator) DispatchStats() (heap, lane uint64) { return s.dispFar, s.dispWheel }

// New creates a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{
		Rand: rand.New(rand.NewSource(seed)),
		seed: seed,
		cur:  -1,
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

// After schedules fn d nanoseconds from now.
func (s *Simulator) After(d Time, fn func()) Timer {
	return s.schedule(s.now+d, s.now, NeutralRank, funcEvent(fn))
}

// Schedule is the allocation-free variant of At: tgt.RunEvent runs at
// absolute time t (clamped to now, FIFO among equal times, exactly like
// At). The target must stay valid until the event fires or is stopped.
func (s *Simulator) Schedule(t Time, tgt EventTarget) Timer {
	return s.schedule(t, s.now, NeutralRank, tgt)
}

// ScheduleAfter schedules tgt.RunEvent d nanoseconds from now; it is
// Schedule(Now()+d, tgt).
func (s *Simulator) ScheduleAfter(d Time, tgt EventTarget) Timer {
	return s.schedule(s.now+d, s.now, NeutralRank, tgt)
}

// ScheduleAfterRank is ScheduleAfter with an explicit arrival rank
// (>= 0): among events colliding on both deadline and schedule instant,
// smaller ranks run first, after all neutral events. Rank must be a
// stable property of the scheduling entity (netsim uses the transmitting
// port's creation index), so that simultaneous arrivals execute in the
// same canonical order in the sequential and the sharded engine.
func (s *Simulator) ScheduleAfterRank(d Time, tgt EventTarget, rank int32) Timer {
	return s.schedule(s.now+d, s.now, rank, tgt)
}

// schedule is the one insert. schedAt is the local clock for everything
// this simulator schedules itself; the group's mail delivery passes the
// sender shard's virtual time at post instead, in deterministic order at
// an epoch barrier.
func (s *Simulator) schedule(at, schedAt Time, rank int32, tgt EventTarget) Timer {
	if at < s.now {
		at = s.now
	}
	n := s.newNode(at, schedAt, rank, tgt)
	s.insert(n)
	return Timer{n: n, gen: n.gen}
}

// insert queues n where its slot belongs: the current run, a wheel slot,
// or the far heap.
func (s *Simulator) insert(n *timerNode) {
	slot := int64(n.at >> slotBits)
	switch {
	case slot <= s.cur:
		if s.runPos == len(s.run) {
			s.run, s.runPos = s.run[:0], 0
		}
		r := append(s.run, n)
		i := len(r) - 1
		for i > s.runPos && timerLess(n, r[i-1]) {
			r[i] = r[i-1]
			i--
		}
		r[i] = n
		s.run = r
	case slot < s.cur+wheelSlots:
		i := slot & wheelMask
		n.next = s.heads[i]
		s.heads[i] = n
		s.occ[i>>6] |= 1 << (i & 63)
		s.wheelN++
	default:
		s.push(n)
		n.far = true
	}
}

// nextSlot makes the earliest occupied slot current: its wheel list and
// the far-heap nodes of the same slot become the sorted run. It reports
// false when nothing is queued. Call it only with the run exhausted.
func (s *Simulator) nextSlot() bool {
	slot := int64(-1)
	if s.wheelN > 0 {
		// First occupied ring index after cur's, cyclically: the wheel's
		// slots all lie in (cur, cur+wheelSlots), one per index.
		base := int(s.cur & wheelMask)
		i := (base + 1) & wheelMask
		w := i >> 6
		word := s.occ[w] &^ (1<<(i&63) - 1)
		for word == 0 {
			w = (w + 1) & (len(s.occ) - 1)
			word = s.occ[w]
		}
		i = w<<6 + bits.TrailingZeros64(word)
		slot = s.cur + int64((i-base)&wheelMask)
	}
	if len(s.far) > 0 {
		if f := int64(s.far[0].at >> slotBits); slot < 0 || f < slot {
			slot = f
		}
	}
	if slot < 0 {
		return false
	}
	s.cur = slot
	r := s.run[:0]
	// The one wheel slot that shares slot's ring index is slot itself, so
	// the list there, if any, is slot's.
	if i := slot & wheelMask; s.heads[i] != nil {
		for n := s.heads[i]; n != nil; n = n.next {
			r = append(r, n)
		}
		s.heads[i] = nil
		s.occ[i>>6] &^= 1 << (i & 63)
		s.wheelN -= len(r)
		// The list is newest first; reversed, it is in insertion order,
		// which the key mostly agrees with.
		slices.Reverse(r)
	}
	for len(s.far) > 0 && int64(s.far[0].at>>slotBits) == slot {
		r = append(r, s.popMin())
	}
	s.run, s.runPos = s.sortRun(r), 0
	return true
}

// sortRun sorts one slot's nodes by the key and returns them, in r or in
// the spare buffer it swaps r for. The deadlines of one slot differ only
// in their low slotBits bits, so a stable counting sort on those bits
// orders a dense slot by at in linear time and keeps insertion order among
// equal deadlines, which the rest of the key nearly always agrees with. An
// insertion pass settles what it does not (mailbox arrivals, ranks, nodes
// from the far heap), and sorts a sparse slot on its own.
func (s *Simulator) sortRun(r []*timerNode) []*timerNode {
	if len(r) > countSortMin {
		var start [slotWidth + 1]int32
		for _, n := range r {
			start[n.at&(slotWidth-1)+1]++
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		out := s.spare[:0]
		if cap(out) < len(r) {
			out = make([]*timerNode, 0, cap(r))
		}
		out = out[:len(r)]
		for _, n := range r {
			k := n.at & (slotWidth - 1)
			out[start[k]] = n
			start[k]++
		}
		s.spare, r = r, out
	}
	for i := 1; i < len(r); i++ {
		n := r[i]
		j := i
		for j > 0 && timerLess(n, r[j-1]) {
			r[j] = r[j-1]
			j--
		}
		r[j] = n
	}
	return r
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
	n.far = false
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

// push inserts n into the far heap, sifting up through 4-ary parents.
func (s *Simulator) push(n *timerNode) {
	h := append(s.far, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	s.far = h
}

// popMin removes and returns the far heap's earliest node.
func (s *Simulator) popMin() *timerNode {
	h := s.far
	top := h[0]
	last := len(h) - 1
	n := h[last]
	h[last] = nil
	h = h[:last]
	s.far = h
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
		i = m
	}
	h[i] = n
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
		if s.runPos == len(s.run) && !s.nextSlot() {
			return nil
		}
		n := s.run[s.runPos]
		if n.at >= stopBefore {
			return nil
		}
		if budget == 0 && !n.stopped {
			return n
		}
		// Take: a pop is a pop, of a live node or a cancelled one.
		s.runPos++
		if n.far {
			s.dispFar++
		} else {
			s.dispWheel++
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

// Pending returns the number of queued (possibly stopped) events; for
// the control simulator of a sharded Group it aggregates across every
// shard. See Live for the count excluding cancelled timers.
func (s *Simulator) Pending() int {
	if s.group != nil {
		return s.group.pending()
	}
	return s.pendingLocal()
}

func (s *Simulator) pendingLocal() int {
	return len(s.run) - s.runPos + s.wheelN + len(s.far)
}

// Live returns the number of queued events that have not been cancelled —
// the events that will actually fire. Group-aware like Pending.
func (s *Simulator) Live() int {
	if s.group != nil {
		return s.group.live()
	}
	return s.live
}
