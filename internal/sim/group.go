package sim

import (
	"fmt"
	"sort"
)

// Group is the conservative parallel dispatcher: one control Simulator
// (workload arrivals, samplers, fault schedules — everything experiments
// schedule directly) plus N shard Simulators, each owning a disjoint set
// of network entities with its own pending-event queue.
//
// Execution proceeds in epochs. Let tmin be the earliest live event
// across all shards; every shard may safely execute its events in the
// window [tmin, tmin+lookahead) without seeing anything new from other
// shards, because a cross-shard interaction takes at least lookahead (the
// minimum propagation delay of any link that crosses a shard boundary) of
// virtual time to arrive. Windows run in parallel, one goroutine per
// shard. Events for another shard are not scheduled directly — the
// sending shard posts them to a per-(src,dst) outbox, and at the epoch
// barrier the group merges all outboxes in a deterministic order and
// inserts them into the destination queues.
//
// Determinism and equivalence with the sequential engine: every event
// carries (at, schedAt, rank) — its deadline, the virtual instant it was
// scheduled, and its arrival rank (NeutralRank except for link
// deliveries, which carry the transmitting port's stable creation
// index). The sequential dispatcher orders same-deadline events by
// (schedAt, rank, insertion sequence); the group orders mailbox arrivals
// by (at, schedAt, rank, src shard, post order). Because simultaneous
// link deliveries — the one event class two shards can emit at exactly
// the same (at, schedAt) — carry distinct ranks, the rank resolves them
// to the same canonical order the sequential engine uses, independent of
// which shard produced them. What remains ambiguous is a neutral-rank
// collision across sources (two entity-local timers, or a control event
// against a shard event, firing at identical (at, schedAt)): those are
// counted in Ties and broken control-first then by shard index. Neutral
// events touch only their own entity's state and meet other entities
// only through ranked deliveries, so the residual ambiguity does not
// reach simulation output: every output — metrics, traces, formatted
// text — is byte-identical to a sequential run of the same topology and
// seed; the CI cmp gates assert this on whole experiment outputs.
type Group struct {
	ctl       *Simulator
	shards    []*Simulator
	lookahead Time

	// out[src][dst] accumulates cross-shard events posted during the
	// parallel phase. Row src is touched only by shard src's goroutine;
	// the barrier thread drains all rows after joining the workers.
	out [][][]mail

	// Ties counts neutral-rank same-(at,schedAt) collisions across
	// sources, broken control-first then by shard index. Harmless for
	// entity-local events (the only neutral emitters) — see the type
	// comment — but kept as a diagnostic: a ranked event class that lost
	// its rank would surface here before it surfaced as divergence.
	Ties uint64

	epochs uint64 // barrier count (diagnostics / benchmarks)

	// Self-profiling counters (see Stats). All are written by the barrier
	// thread between parallel phases except workNs, whose slot i is written
	// only by shard i's worker goroutine.
	instantEvents uint64  // events merge-stepped on the barrier thread
	mailDelivered uint64  // cross-shard events delivered
	mailPeak      int     // largest single-destination barrier batch
	windowNs      int64   // wall ns spent inside shard windows
	workNs        []int64 // wall ns shard i spent executing windows
	// clock, when non-nil, is a wall-clock nanosecond source injected from
	// outside the simulation-time boundary (the sim package itself never
	// imports time). It enables barrier/work attribution in Stats.
	clock func() int64
}

// GroupStats is a structured snapshot of the group's self-profiling
// counters — the machine-readable replacement for parsing String().
// Read it after a run returns: Stats is not synchronized with in-flight
// worker goroutines.
type GroupStats struct {
	Shards        int
	Lookahead     Time
	Epochs        uint64 // epoch barriers crossed (parallel windows)
	Ties          uint64 // residual neutral-rank cross-source collisions
	InstantEvents uint64 // events merge-stepped on the barrier thread
	MailDelivered uint64 // cross-shard events delivered at barriers
	MailPeak      int    // largest single-destination barrier batch
	WindowNs      int64  // wall ns inside shard windows (0 without SetClock)
	PerShard      []ShardStats
}

// ShardStats profiles one shard simulator of a group.
type ShardStats struct {
	Executed     uint64
	HeapDispatch uint64 // queue pops of nodes that waited in the far heap
	LaneDispatch uint64 // queue pops of nodes that waited in the wheel
	WorkNs       int64  // wall ns executing windows (0 without SetClock)
	BarrierNs    int64  // WindowNs - WorkNs: time stalled at epoch barriers
}

// SetClock injects a wall-clock nanosecond source (callers pass
// time.Now().UnixNano from outside the sim-time boundary), enabling the
// WorkNs/BarrierNs attribution in Stats. Set it before the first run; a
// nil clock (the default) keeps the epoch loop free of timing calls.
func (g *Group) SetClock(fn func() int64) { g.clock = fn }

// Stats returns the group's structured self-profiling counters.
func (g *Group) Stats() GroupStats {
	st := GroupStats{
		Shards:        len(g.shards),
		Lookahead:     g.lookahead,
		Epochs:        g.epochs,
		Ties:          g.Ties,
		InstantEvents: g.instantEvents,
		MailDelivered: g.mailDelivered,
		MailPeak:      g.mailPeak,
		WindowNs:      g.windowNs,
	}
	st.PerShard = make([]ShardStats, len(g.shards))
	for i, sh := range g.shards {
		h, l := sh.DispatchStats()
		ss := ShardStats{Executed: sh.executed, HeapDispatch: h, LaneDispatch: l, WorkNs: g.workNs[i]}
		if b := g.windowNs - ss.WorkNs; g.windowNs > 0 && b > 0 {
			ss.BarrierNs = b
		}
		st.PerShard[i] = ss
	}
	return st
}

// mail is one cross-shard event in flight between epochs.
type mail struct {
	at      Time
	schedAt Time
	rank    int32
	tgt     EventTarget
}

// NewGroup turns ctl into the control simulator of a sharded group with
// n shard simulators and the given lookahead window (the minimum
// propagation delay across shard-crossing links; must be positive).
// Shard random sources are seeded from the control seed, but entities
// partitioned across shards must draw from per-entity streams (SubSeed)
// for sequential equivalence, not from a shard's Rand.
func NewGroup(ctl *Simulator, n int, lookahead Time) *Group {
	if ctl.group != nil {
		panic("sim: simulator is already the control of a group")
	}
	if n < 1 {
		panic("sim: group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: group lookahead must be positive")
	}
	g := &Group{ctl: ctl, lookahead: lookahead}
	for i := 0; i < n; i++ {
		sh := New(SubSeed(ctl.seed, 0x5a4dd000+uint64(i)))
		sh.now = ctl.now
		g.shards = append(g.shards, sh)
	}
	g.out = make([][][]mail, n)
	for i := range g.out {
		g.out[i] = make([][]mail, n)
	}
	g.workNs = make([]int64, n)
	ctl.group = g
	return g
}

// Shards returns the number of shard simulators.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns shard i's simulator. Entities assigned to shard i must
// schedule all their intra-shard events through it.
func (g *Group) Shard(i int) *Simulator { return g.shards[i] }

// Control returns the control simulator (the one passed to NewGroup).
func (g *Group) Control() *Simulator { return g.ctl }

// Lookahead returns the group's lookahead window.
func (g *Group) Lookahead() Time { return g.lookahead }

// Epochs returns the number of epoch barriers crossed so far.
func (g *Group) Epochs() uint64 { return g.epochs }

// Post queues a cross-shard event: tgt.RunEvent will execute on shard dst
// at virtual time at, ordered among same-(at, schedAt) arrivals by rank
// (see ScheduleAfterRank; pass NeutralRank for unranked events). schedAt
// must be the sender shard's current time; the conservative window
// guarantees at >= the next epoch boundary, so the event is always
// delivered before its deadline. Safe to call from shard src's goroutine
// during the parallel phase (and from the barrier thread between phases).
func (g *Group) Post(src, dst int, at, schedAt Time, rank int32, tgt EventTarget) {
	g.out[src][dst] = append(g.out[src][dst], mail{at: at, schedAt: schedAt, rank: rank, tgt: tgt})
}

func (g *Group) executed() uint64 {
	n := g.ctl.executed
	for _, sh := range g.shards {
		n += sh.executed
	}
	return n
}

func (g *Group) pending() int {
	n := g.ctl.pendingLocal()
	for _, sh := range g.shards {
		n += sh.pendingLocal()
	}
	return n
}

func (g *Group) live() int {
	n := g.ctl.live
	for _, sh := range g.shards {
		n += sh.live
	}
	return n
}

func (g *Group) anyShardStopped() bool {
	for _, sh := range g.shards {
		if sh.stopped {
			return true
		}
	}
	return false
}

// deliverMail drains every outbox into the destination shards. Runs on
// the barrier thread after all workers have joined. Delivery order is the
// deterministic (at, schedAt, rank, src, post-order) merge described on
// Group.
func (g *Group) deliverMail(scratch *[]srcMail) {
	box := (*scratch)[:0]
	for dst := range g.shards {
		for src := range g.shards {
			row := g.out[src][dst]
			if len(row) == 0 {
				continue
			}
			for _, m := range row {
				box = append(box, srcMail{m, src})
			}
			for i := range row {
				row[i] = mail{}
			}
			g.out[src][dst] = row[:0]
		}
		if len(box) == 0 {
			continue
		}
		// Stable: preserves per-src post order for equal keys, so the sort
		// key degenerates to (at, schedAt, rank, src, post-order).
		sort.SliceStable(box, func(i, j int) bool {
			a, b := &box[i], &box[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.schedAt != b.schedAt {
				return a.schedAt < b.schedAt
			}
			if a.rank != b.rank {
				return a.rank < b.rank
			}
			return a.src < b.src
		})
		g.mailDelivered += uint64(len(box))
		if len(box) > g.mailPeak {
			g.mailPeak = len(box)
		}
		sh := g.shards[dst]
		for i := range box {
			m := &box[i]
			if i > 0 && m.at == box[i-1].at && m.schedAt == box[i-1].schedAt &&
				m.rank == box[i-1].rank && m.src != box[i-1].src {
				g.Ties++
			}
			sh.schedule(m.at, m.schedAt, m.rank, m.tgt)
		}
		box = box[:0]
	}
	*scratch = box
}

type srcMail struct {
	mail
	src int
}

// runUntil is the group's epoch loop, entered via the control
// simulator's Run/RunUntil. It provides the same Now() contract as the
// sequential RunUntil, applied to the control clock; shard clocks are
// advanced in lockstep at barriers.
func (g *Group) runUntil(end Time) {
	ctl := g.ctl
	if ctl.stopped {
		ctl.stopped = false
		return
	}

	// Per-run worker pool: one goroutine per shard, told the window bound
	// over start and reporting completion over done. Spawned per run (not
	// per group) so an abandoned group leaks nothing.
	starts := make([]chan Time, len(g.shards))
	done := make(chan int, len(g.shards))
	clock := g.clock
	for i := range g.shards {
		starts[i] = make(chan Time, 1)
		go func(sh *Simulator, start <-chan Time, i int) {
			for e := range start {
				if clock != nil {
					w0 := clock()
					sh.runCore(e)
					g.workNs[i] += clock() - w0
				} else {
					sh.runCore(e)
				}
				done <- i
			}
		}(g.shards[i], starts[i], i)
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()

	var mailScratch []srcMail
	stopped := false
	for {
		ctlAt, _, _, ctlOK := ctl.peekLive()
		tmin := Time(0)
		have := false
		for _, sh := range g.shards {
			if t, _, _, ok := sh.peekLive(); ok && (!have || t < tmin) {
				tmin = t
				have = true
			}
		}
		var T Time
		switch {
		case ctlOK && (!have || ctlAt <= tmin):
			T = ctlAt
		case have:
			T = tmin
		default: // fully drained
			goto out
		}
		if T > end {
			goto out
		}
		if ctlOK && ctlAt == T {
			// Control activity at T: merge-step every event at exactly this
			// instant (control and shard alike) on the barrier thread, in
			// the sequential (schedAt, source) order. This is the only path
			// where control state is read/written at shard event times, so
			// samplers observe exactly what the sequential engine would.
			g.runInstant(T)
			if ctl.stopped || g.anyShardStopped() {
				stopped = true
				goto out
			}
			continue
		}
		// Pure shard window [tmin, E): no control event strictly inside.
		{
			E := tmin + g.lookahead
			if ctlOK && ctlAt < E {
				E = ctlAt
			}
			if end+1 < E && end+1 > end { // min(E, end+1), overflow-safe
				E = end + 1
			}
			g.runWindow(starts, done, E)
			g.deliverMail(&mailScratch)
			g.epochs++
			if ctl.stopped || g.anyShardStopped() {
				stopped = true
				goto out
			}
		}
	}
out:
	if stopped {
		// Best-effort stop: clocks stay where the stopping event (or its
		// epoch) left them; consume the request so the next run resumes.
		ctl.stopped = false
		for _, sh := range g.shards {
			sh.stopped = false
		}
		return
	}
	// Drained (within end): apply the sequential tail contract to every
	// clock in lockstep. Live events beyond end make time pass to end; a
	// fully drained (or cancelled-only) system keeps the last executed
	// instant, which globally is the max across member clocks.
	final := ctl.now
	for _, sh := range g.shards {
		if sh.now > final {
			final = sh.now
		}
	}
	if g.live() > 0 && final < end {
		final = end
	}
	ctl.advanceTo(final)
	for _, sh := range g.shards {
		sh.advanceTo(final)
	}
}

// runWindow executes [current, E) on every shard that has work before E,
// in parallel. Single-shard windows run inline on the barrier thread to
// skip the handoff latency.
func (g *Group) runWindow(starts []chan Time, done chan int, E Time) {
	active := 0
	last := -1
	for i, sh := range g.shards {
		if t, _, _, ok := sh.peekLive(); ok && t < E {
			active++
			last = i
		}
	}
	switch active {
	case 0:
		return
	case 1:
		if c := g.clock; c != nil {
			w0 := c()
			g.shards[last].runCore(E)
			d := c() - w0
			g.workNs[last] += d
			g.windowNs += d
		} else {
			g.shards[last].runCore(E)
		}
		return
	}
	var t0 int64
	if g.clock != nil {
		t0 = g.clock()
	}
	g.ctl.noSchedule = true
	n := 0
	for i, sh := range g.shards {
		if t, _, _, ok := sh.peekLive(); ok && t < E {
			starts[i] <- E
			n++
		}
	}
	for ; n > 0; n-- {
		<-done
	}
	g.ctl.noSchedule = false
	if g.clock != nil {
		g.windowNs += g.clock() - t0
	}
}

// runInstant executes every event whose deadline is exactly T — across
// the control simulator and all shards — one at a time on the barrier
// thread, picking at each step the pending event with the smallest
// (schedAt, rank, source) key. This mirrors the sequential engine's
// insertion order for same-instant events ((schedAt, rank) order is
// (rank, seq) order within one simulator); a cross-source tie on both
// schedAt and rank is the residual ambiguity counted in Ties, broken
// control-first then by shard index. Events scheduled during the step
// for the same instant (zero-delay chains) join the merge.
func (g *Group) runInstant(T Time) {
	for _, sh := range g.shards {
		sh.advanceTo(T)
	}
	g.ctl.advanceTo(T)
	for {
		best := -2 // -2 none, -1 control, >=0 shard index
		var bestSched Time
		var bestRank int32
		tie := false
		if at, schedAt, rank, ok := g.ctl.peekLive(); ok && at == T {
			best, bestSched, bestRank = -1, schedAt, rank
		}
		for i, sh := range g.shards {
			at, schedAt, rank, ok := sh.peekLive()
			if !ok || at != T {
				continue
			}
			if best == -2 || schedAt < bestSched || (schedAt == bestSched && rank < bestRank) {
				best, bestSched, bestRank, tie = i, schedAt, rank, false
			} else if schedAt == bestSched && rank == bestRank {
				tie = true
			}
		}
		switch best {
		case -2:
			return
		case -1:
			if tie {
				g.Ties++
			}
			g.instantEvents++
			g.ctl.runOne()
		default:
			if tie {
				g.Ties++
			}
			g.instantEvents++
			g.shards[best].runOne()
			// A shard event may have posted cross-shard mail; with
			// cross-shard delays >= lookahead > 0 it cannot land at T, but
			// it must still be delivered before the next window. Cheap:
			// only drain when something was posted.
			g.drainInstantMail(best)
		}
		if g.ctl.stopped || g.anyShardStopped() {
			return
		}
	}
}

// drainInstantMail delivers mail posted by a single shard's event run on
// the barrier thread (runInstant). Order within the row is post order,
// which is the exact sequential insertion order — no cross-src merge is
// needed because only one shard ran.
func (g *Group) drainInstantMail(src int) {
	for dst := range g.shards {
		row := g.out[src][dst]
		if len(row) == 0 {
			continue
		}
		g.mailDelivered += uint64(len(row))
		sh := g.shards[dst]
		for i := range row {
			m := &row[i]
			sh.schedule(m.at, m.schedAt, m.rank, m.tgt)
			row[i] = mail{}
		}
		g.out[src][dst] = row[:0]
	}
}

// String summarizes the group (diagnostics).
func (g *Group) String() string {
	return fmt.Sprintf("sim.Group{shards: %d, lookahead: %s, epochs: %d, ties: %d}",
		len(g.shards), g.lookahead, g.epochs, g.Ties)
}
