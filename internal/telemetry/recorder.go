package telemetry

import (
	"math/bits"
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
// A push appends to an unordered buffer; when that holds compactAt×limit
// events one linear-time selection cuts it back to the top limit and
// notes the smallest of them as the floor, below which later pushes are
// dropped on arrival. Either way an event is discarded only when limit
// pushed events sort at or above it, so the retained set is the
// top-limit of the pushed *multiset* — invariant under arrival order.
// The canonical order leads with the timestamp, so "keep the
// largest" keeps a trial's tail (usually the interesting part).
type recorder struct {
	limit    int
	buf      []event // unordered; grown on demand, see reserve
	floor    event   // smallest event the last compaction kept
	floored  bool    // a compaction has run, floor is set
	total    int64   // all events ever pushed
	compares int64   // eventLess calls made compacting (tests bound them)
}

// compactAt×limit events in the buffer trigger a compaction: the slack is
// limit itself, so one selection over 2·limit events serves limit pushes
// — a handful of comparisons a push at any RingCap — for twice the
// retained set's memory.
const compactAt = 2

func (r *recorder) init(limit int) { r.limit = limit }

// reserve grows the buffer's capacity to n events. push doubles it on
// demand, from 256 up to compactAt×limit (most trials never fill a ring,
// and zeroing one eagerly was nearly all of a small trial's set-up time);
// Trial.Warm reserves the whole of it.
func (r *recorder) reserve(n int) {
	if n = min(n, compactAt*r.limit); n > cap(r.buf) {
		r.buf = append(make([]event, 0, n), r.buf...)
	}
}

// push records one event. Callers must hold the owning Trial's mutex.
func (r *recorder) push(e *event) {
	r.total++
	if r.floored && eventLess(e, &r.floor) {
		return // below the kept range entirely
	}
	if len(r.buf) == cap(r.buf) {
		if len(r.buf) < compactAt*r.limit {
			r.reserve(max(2*len(r.buf), 256))
		} else {
			r.compact()
		}
	}
	r.buf = append(r.buf, *e)
}

// compact cuts the buffer down to its canonically largest limit events,
// in no particular order, and records the new floor.
func (r *recorder) compact() {
	if len(r.buf) <= r.limit {
		return
	}
	r.selectTop(r.limit, 2*bits.Len(uint(len(r.buf))))
	r.buf = r.buf[:r.limit]
	r.floor, r.floored = r.buf[r.limit-1], true
}

// after reports whether a sorts canonically after b.
func (r *recorder) after(a, b *event) bool {
	r.compares++
	return eventLess(b, a)
}

// selectTop rearranges buf so that buf[:k] are its k canonically largest
// events and buf[k-1] the smallest of those: quickselect in descending
// order. The pivot is the median of three events at positions scrambled
// from the range bounds (an xorshift, not a random source: the cost stays
// a function of the input, yet first/middle/last resonate with the
// layout earlier selections leave behind), and the Hoare partition stops
// on equal keys, so runs of duplicates split evenly. After 2·⌈log₂ n⌉
// partitions that cut less than an eighth off the range, what is left
// of it is sorted instead: O(n log n) comparisons at worst.
func (r *recorder) selectTop(k, budget int) {
	a := r.buf
	lo, hi := 0, len(a)-1
	for lo < hi {
		if budget == 0 {
			rest := a[lo : hi+1]
			sort.Slice(rest, func(i, j int) bool { return r.after(&rest[i], &rest[j]) })
			return
		}
		x, n := uint64(lo)<<32^uint64(hi), hi-lo+1
		var s [3]int
		for i := range s {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s[i] = lo + int(x%uint64(n))
		}
		m := s[0]
		if r.after(&a[s[1]], &a[s[2]]) != r.after(&a[s[1]], &a[s[0]]) {
			m = s[1]
		} else if r.after(&a[s[2]], &a[s[1]]) != r.after(&a[s[2]], &a[s[0]]) {
			m = s[2]
		}
		a[lo], a[m] = a[m], a[lo]
		pivot, i, j := &a[lo], lo+1, hi
		for {
			for i <= j && r.after(&a[i], pivot) {
				i++
			}
			for i <= j && r.after(pivot, &a[j]) {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i, j = i+1, j-1
		}
		a[lo], a[j] = a[j], a[lo] // the pivot is now the (j+1)-th largest
		switch {
		case j == k-1:
			return
		case j > k-1:
			hi = j - 1
		default:
			lo = j + 1
		}
		if hi-lo+1 > n-n/8 {
			budget--
		}
	}
}

// retained is the number of events kept: trace_events in the metrics.
func (r *recorder) retained() int { return min(len(r.buf), r.limit) }

// dropped counts the events pushed and not kept.
func (r *recorder) dropped() int64 { return r.total - int64(r.retained()) }

// events compacts and returns the retained events in canonical ascending
// order — the recorder's own buffer, sorted in place.
func (r *recorder) events() []event {
	r.compact()
	sort.Slice(r.buf, func(i, j int) bool { return eventLess(&r.buf[i], &r.buf[j]) })
	return r.buf
}

// tracks returns the sorted distinct track names of the retained events;
// export numbers thread ids from this list (tid = index + 1).
func (r *recorder) tracks() []string {
	r.compact()
	seen := make(map[string]bool)
	var out []string
	for i := range r.buf {
		if !seen[r.buf[i].track] {
			seen[r.buf[i].track] = true
			out = append(out, r.buf[i].track)
		}
	}
	sort.Strings(out)
	return out
}
