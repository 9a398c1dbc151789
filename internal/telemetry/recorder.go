package telemetry

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"tfcsim/internal/sim"
)

// Arg is one numeric key/value attached to a recorded event. Trace
// events carry only numbers: strings would force per-event allocation on
// the hot path and everything the viewers graph is numeric anyway.
type Arg struct {
	K string
	V float64
}

// maxArgs bounds the args an event can carry. Args live inline in the
// event struct so that pushing an event never allocates: the variadic
// slice at the probe call site is copied by value and never escapes.
const maxArgs = 3

// event is one recorded trace event. ph follows the Chrome trace-event
// phases used here: 'X' complete span (ts+dur), 'i' instant, 'C' counter.
// Events carry their track name directly (not an interned id): the
// recorder keeps no arrival order, so first-use interning would depend on
// something the retained set does not — export derives thread ids from
// the sorted track names instead.
type event struct {
	name  string
	cat   string
	track string
	ph    byte
	nargs uint8
	ts    sim.Time
	dur   sim.Time
	args  [maxArgs]Arg
}

// setArgs copies args inline (pushing more than maxArgs is a programming
// error in this package's probes, caught loudly rather than truncated).
func (e *event) setArgs(args []Arg) {
	if len(args) > maxArgs {
		panic("telemetry: event exceeds maxArgs")
	}
	e.nargs = uint8(copy(e.args[:], args))
}

// eventLess is the canonical total order on events: virtual timestamp,
// then every remaining field. Two events that compare equal are
// field-for-field identical, so any ordering (or eviction choice) among
// equals leaves the exported bytes unchanged. This is what makes the
// recorder's output a pure function of the event *multiset*, so the
// order in which probes and consumers emit is free.
func eventLess(a, b *event) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.track != b.track {
		return a.track < b.track
	}
	if a.ph != b.ph {
		return a.ph < b.ph
	}
	if a.cat != b.cat {
		return a.cat < b.cat
	}
	if a.name != b.name {
		return a.name < b.name
	}
	if a.dur != b.dur {
		return a.dur < b.dur
	}
	if a.nargs != b.nargs {
		return a.nargs < b.nargs
	}
	for i := uint8(0); i < a.nargs; i++ {
		if a.args[i].K != b.args[i].K {
			return a.args[i].K < b.args[i].K
		}
		if a.args[i].V != b.args[i].V {
			return a.args[i].V < b.args[i].V
		}
	}
	return false
}

// recorder keeps the canonically-largest `limit` events pushed so far.
// Events live in slots that never move: segments of 256, 256, 512, …
// events, each as large as all before it (the last one takes what is
// left), allocated as pushes need them, up to limit plus a slack of
// limit/slackDiv slots. Each slot's timestamp is also kept in a parallel
// array of 8-byte keys. A push fills a free slot; when none is left, one
// compaction cuts the occupied slots back to the top limit, frees the
// rest for later pushes and notes the smallest event kept as the floor,
// below which later pushes are dropped on arrival. Either way an event is
// discarded only when limit pushed events sort at or above it, so the
// retained set is the top-limit of the pushed *multiset* — invariant
// under arrival order. The canonical order leads with the timestamp, so
// "keep the largest" keeps a trial's tail (usually the interesting part).
type recorder struct {
	limit    int
	slots    int              // most slots the recorder allocates: limit plus the slack
	segs     [maxSegs][]event // the slots; segment i ≥ 1 starts at slot 128<<i
	nsegs    int              // segments allocated
	keys     []int64          // keys[s] is slot s's timestamp; cap is the slots allocated
	work     []int64          // as long as cap(keys), in the same allocation: see compact
	free     []int64          // emptied slots, refilled by later pushes; a prefix of work
	idx      []int            // export's slot order
	floor    event            // smallest event the last compaction kept
	floored  bool             // a compaction has run, floor is set
	total    int64            // all events ever pushed
	compares int64            // comparisons made compacting (tests bound them)
}

// The slack is limit/slackDiv slots (at least one): a compaction of
// 1.5·limit occupied slots serves limit/2 pushes — a handful of key
// comparisons a push at any RingCap — and the full recorder holds half
// again the retained set's memory, not twice it.
const slackDiv = 2

// maxSegs segments number every slot an int can: segment i ≥ 1 starts
// at slot 128<<i.
const maxSegs = bits.UintSize - 7

func (r *recorder) init(limit int) {
	r.limit, r.slots = limit, limit+max(limit/slackDiv, 1)
}

// at returns slot s. Segment i's first slot is (128<<i)&^128: 0, 256,
// 512, …; the last segment allocated also holds the slots past its
// doubling size.
func (r *recorder) at(s int) *event {
	i := min(bits.Len(uint(s)>>8), r.nsegs-1)
	return &r.segs[i][s-(128<<i)&^128]
}

// push records one event. Slots are allocated a segment at a time (most
// trials never fill a ring, and zeroing one eagerly was nearly all of a
// small trial's set-up time); once all r.slots are taken, a compaction
// frees some.
func (r *recorder) push(e *event) {
	r.total++
	if r.floored && eventLess(e, &r.floor) {
		return // below the kept range entirely
	}
	if len(r.free) == 0 && len(r.keys) == cap(r.keys) && !r.grow() {
		r.compact()
	}
	var s int
	if n := len(r.free); n > 0 {
		s, r.free = int(r.free[n-1]), r.free[:n-1]
		r.keys[s] = int64(e.ts)
	} else {
		s, r.keys = len(r.keys), append(r.keys, int64(e.ts))
	}
	*r.at(s) = *e
}

// grow allocates the next segment, if r.slots leaves room for one, and
// reports whether it did. A segment is as large as all before it, and
// the last one also takes a remainder no larger than that. The keys move
// to a new array of 2×cap words, whose upper half is the work area; the
// events stay where they are. Only a push that finds no free slot grows
// the recorder, so the free list (in the old work area) is empty.
func (r *recorder) grow() bool {
	have := len(r.keys)
	if have == r.slots {
		return false
	}
	n := max(have, 256)
	if r.slots-have <= 2*n {
		n = r.slots - have
	}
	r.segs[r.nsegs] = make([]event, n)
	r.nsegs++
	buf := make([]int64, 2*(have+n))
	r.keys = append(buf[:0:have+n], r.keys...)
	r.work = buf[have+n:]
	r.free = r.work[:0]
	return true
}

// occupied returns the occupied slots in ascending order, in r.idx.
func (r *recorder) occupied() []int {
	slices.Sort(r.free)
	if n := len(r.keys) - len(r.free); cap(r.idx) < n {
		r.idx = make([]int, 0, n)
	}
	r.idx = r.idx[:0]
	f := r.free
	for s := range r.keys {
		if len(f) > 0 && f[0] == int64(s) {
			f = f[1:]
			continue
		}
		r.idx = append(r.idx, s)
	}
	return r.idx
}

// compact cuts the occupied slots down to the canonically largest limit
// events and records the new floor. The cut is found on the keys alone:
// T, the limit-th largest timestamp, keeps every event after it and
// frees every event before it, and only the events at exactly T are
// ranked by eventLess. The work area holds the free list at its front,
// then in turn the copy of the keys the selection permutes, the slots
// freed (appended to the free list) and, from its back, the slots at T;
// a compaction allocates nothing.
func (r *recorder) compact() {
	n := len(r.keys) - len(r.free)
	if n <= r.limit {
		return
	}
	var order []int // nil: every slot is occupied, slot i is the i-th
	if len(r.free) > 0 {
		order = r.occupied()
	}
	f := len(r.free) // free stays free; the copy goes behind it
	sc := r.work[f : f+n]
	if order == nil {
		copy(sc, r.keys)
	} else {
		for i, s := range order {
			sc[i] = r.keys[s]
		}
	}
	t := r.kthLargest(sc, r.limit, 2*bits.Len(uint(n)))
	above, free, tie := 0, r.free, len(r.work)
	for i := 0; i < n; i++ {
		s := i
		if order != nil {
			s = order[i]
		}
		switch k := r.keys[s]; {
		case k > t:
			above++
		case k < t:
			free = append(free, int64(s))
		default:
			tie--
			r.work[tie] = int64(s)
		}
	}
	// limit - above of the ties are kept: at least one, since fewer than
	// limit keys are above T, and at most all, since limit are at or above.
	ties, keep := r.work[tie:], r.limit-above
	slices.SortFunc(ties, func(a, b int64) int {
		r.compares++
		return eventCmp(r.at(int(b)), r.at(int(a))) // descending
	})
	r.floor, r.floored = *r.at(int(ties[keep-1])), true
	r.free = append(free, ties[keep:]...)
}

// eventCmp orders a and b as eventLess does, for the slices sorts.
func eventCmp(a, b *event) int {
	switch {
	case eventLess(a, b):
		return -1
	case eventLess(b, a):
		return 1
	}
	return 0
}

// kthLargest rearranges a and returns its k-th largest key: quickselect
// in descending order. The pivot is the median of three keys at
// positions scrambled from the range bounds (an xorshift, not a random
// source: the cost stays a function of the input, yet first/middle/last
// resonate with the layout earlier compactions leave behind), and the
// Hoare partition stops on equal keys, so runs of duplicates split
// evenly. After budget partitions that cut less than an eighth off the
// range, what is left of it is sorted instead: O(n log n) comparisons at
// worst.
func (r *recorder) kthLargest(a []int64, k, budget int) int64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		if budget == 0 {
			slices.SortFunc(a[lo:hi+1], func(x, y int64) int {
				r.compares++
				return cmp.Compare(y, x)
			})
			break
		}
		s, n := pivotSamples(lo, hi), hi-lo+1
		m := s[0]
		if (a[s[1]] > a[s[2]]) != (a[s[1]] > a[s[0]]) {
			m = s[1]
		} else if (a[s[2]] > a[s[1]]) != (a[s[2]] > a[s[0]]) {
			m = s[2]
		}
		a[lo], a[m] = a[m], a[lo]
		pivot, i, j := a[lo], lo+1, hi
		for {
			for i <= j && a[i] > pivot {
				i++
			}
			for i <= j && pivot > a[j] {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i, j = i+1, j-1
		}
		r.compares += int64(n) + 4 // each key meets the pivot about once
		a[lo], a[j] = a[j], a[lo]  // the pivot is now the (j+1)-th largest
		switch {
		case j == k-1:
			return a[j]
		case j > k-1:
			hi = j - 1
		default:
			lo = j + 1
		}
		if hi-lo+1 > n-n/8 {
			budget--
		}
	}
	return a[k-1]
}

// pivotSamples returns kthLargest's three pivot candidates in [lo, hi].
func pivotSamples(lo, hi int) (s [3]int) {
	x, n := uint64(lo)<<32^uint64(hi), uint64(hi-lo+1)
	for i := range s {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s[i] = lo + int(x%n)
	}
	return s
}

// retained is the number of events kept: trace_events in the metrics.
func (r *recorder) retained() int { return min(len(r.keys)-len(r.free), r.limit) }

// dropped counts the events pushed and not kept.
func (r *recorder) dropped() int64 { return r.total - int64(r.retained()) }

// events compacts and returns the retained events in canonical ascending
// order: pointers into the recorder's slots, valid until the next push.
// The slot numbers are sorted, by key first, and no event moves.
func (r *recorder) events() []*event {
	r.compact()
	order := r.occupied()
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(r.keys[a], r.keys[b]); c != 0 {
			return c
		}
		return eventCmp(r.at(a), r.at(b))
	})
	out := make([]*event, len(order))
	for i, s := range order {
		out[i] = r.at(s)
	}
	return out
}

// tracks returns the sorted distinct track names of the retained events;
// export numbers thread ids from this list (tid = index + 1).
func (r *recorder) tracks() []string {
	r.compact()
	seen := make(map[string]bool)
	var out []string
	for _, s := range r.occupied() {
		if tr := r.at(s).track; !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	sort.Strings(out)
	return out
}
