package telemetry

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"tfcsim/internal/sim"
)

// oracleTop is the recorder's specification: the canonically largest
// limit events of the pushed multiset, ascending.
func oracleTop(pushed []event, limit int) []event {
	s := append([]event(nil), pushed...)
	sort.SliceStable(s, func(i, j int) bool { return eventLess(&s[i], &s[j]) })
	if len(s) > limit {
		s = s[len(s)-limit:]
	}
	return s
}

// checkRecorder holds r to the oracle for everything pushed so far.
func checkRecorder(t *testing.T, r *recorder, pushed []event, limit int) {
	t.Helper()
	want := oracleTop(pushed, limit)
	if d := int64(len(pushed) - len(want)); r.dropped() != d || r.retained() != len(want) {
		t.Fatalf("after %d pushes: retained %d dropped %d, want %d and %d",
			len(pushed), r.retained(), r.dropped(), len(want), d)
	}
	tracks := map[string]bool{}
	for i := range want {
		tracks[want[i].track] = true
	}
	got := r.tracks()
	if len(got) != len(tracks) || !sort.StringsAreSorted(got) {
		t.Fatalf("tracks = %v, want the %d distinct tracks of the retained events, sorted", got, len(tracks))
	}
	for _, tr := range got {
		if !tracks[tr] {
			t.Fatalf("tracks lists %q, which no retained event is on", tr)
		}
	}
	evs := r.events()
	if len(evs) != len(want) {
		t.Fatalf("events() has %d events, want %d", len(evs), len(want))
	}
	for i := range want {
		if *evs[i] != want[i] {
			t.Fatalf("after %d pushes, limit %d: event %d = %+v, want %+v", len(pushed), limit, i, evs[i], want[i])
		}
	}
}

// randomEvents draws n events from small domains, so that timestamps tie,
// events differ only in a late field, and some are exact duplicates.
func randomEvents(rng *rand.Rand, n int) []event {
	tracks := []string{"a", "b", "c"}
	evs := make([]event, n)
	for i := range evs {
		if i > 0 && rng.Intn(5) == 0 {
			evs[i] = evs[rng.Intn(i)]
			continue
		}
		e := event{
			name: tracks[rng.Intn(2)], cat: tracks[rng.Intn(2)], track: tracks[rng.Intn(3)],
			ph: "XiC"[rng.Intn(3)], ts: sim.Time(rng.Intn(n/4 + 1)), dur: sim.Time(rng.Intn(2)),
		}
		for e.nargs = 0; int(e.nargs) < rng.Intn(maxArgs+1); e.nargs++ {
			e.args[e.nargs] = Arg{tracks[rng.Intn(2)], float64(rng.Intn(2))}
		}
		evs[i] = e
	}
	return evs
}

func TestRecorderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(700)
		evs := randomEvents(rng, n)
		for _, limit := range []int{1, 2, 3, 64, n + 1} {
			// One multiset, a fresh arrival order, checked after batches
			// of a random size (events() in mid-stream must leave the
			// recorder usable) and, for batch = n, only at the end.
			rng.Shuffle(n, func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			for _, batch := range []int{1 + rng.Intn(n), n} {
				var r recorder
				r.init(limit)
				for i := range evs {
					r.push(&evs[i])
					if (i+1)%batch == 0 {
						checkRecorder(t, &r, evs[:i+1], limit)
					}
				}
				checkRecorder(t, &r, evs, limit)
			}
		}
	}
}

// FuzzRecorder replays push scripts against oracleTop: a limit of 1–64,
// timestamps from a small domain (heavy ties), events that differ in a
// late field only, exact duplicates of earlier pushes, any order, and
// tracks()/events() in mid-stream. After every push the counts must be
// the oracle's and the floor at or below its smallest retained event; at
// every mid-stream check and at the end, the exported events must be
// exactly the oracle's.
func FuzzRecorder(f *testing.F) {
	var up, down []byte
	for i := 0; i < 120; i++ {
		up = append(up, byte(i%32)<<3, byte(i))
		down = append(down, byte(31-i%32)<<3, byte(i*7))
		if i%40 == 39 {
			up, down = append(up, 7, 0), append(down, 7, 0)
		}
	}
	f.Add(uint8(16), up)
	f.Add(uint8(5), down)
	f.Add(uint8(0), []byte{8, 1, 8, 1, 6, 0, 16, 2, 7, 0, 6, 1, 8, 3, 0, 4, 7, 0, 6, 5})
	f.Add(uint8(63), []byte{6, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, lim uint8, script []byte) {
		limit := 1 + int(lim%64)
		script = script[:min(len(script), 1024)] // the checks are quadratic
		var r recorder
		r.init(limit)
		var pushed, sorted []event // sorted: pushed in canonical order
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			var e event
			switch op % 8 {
			case 7:
				checkRecorder(t, &r, pushed, limit)
				continue
			case 6:
				if len(pushed) == 0 {
					continue
				}
				e = pushed[int(arg)%len(pushed)]
			default:
				e = event{
					name: "ab"[arg>>4&1:][:1], track: "abc"[arg%3:][:1], ph: "XiC"[arg>>2%3],
					ts: sim.Time(op >> 3), dur: sim.Time(op % 2), nargs: arg >> 5 & 3,
				}
				for j := range e.args[:e.nargs] {
					e.args[j] = Arg{"k", float64(arg >> 7)}
				}
			}
			r.push(&e)
			pushed = append(pushed, e)
			at, _ := slices.BinarySearchFunc(sorted, e, func(a, b event) int { return eventCmp(&a, &b) })
			sorted = slices.Insert(sorted, at, e)
			want := sorted[max(len(sorted)-limit, 0):] // oracleTop(pushed, limit)
			if r.retained() != len(want) || r.dropped() != int64(len(pushed)-len(want)) {
				t.Fatalf("push %d: retained %d dropped %d, want %d and %d",
					len(pushed), r.retained(), r.dropped(), len(want), len(pushed)-len(want))
			}
			if r.floored && eventLess(&want[0], &r.floor) {
				t.Fatalf("push %d: floor %+v is above the retained %+v", len(pushed), r.floor, want[0])
			}
		}
		checkRecorder(t, &r, pushed, limit)
	})
}

// TestRecorderSelectionBudget feeds the arrangements that defeat naive
// pivot rules and holds every compaction to O(n log n) comparisons.
func TestRecorderSelectionBudget(t *testing.T) {
	const limit, n = 1 << 10, 8 << 10
	shapes := map[string]func(i int) sim.Time{
		"sorted":     func(i int) sim.Time { return sim.Time(i) },
		"descending": func(i int) sim.Time { return sim.Time(n - i) },
		"all-equal":  func(i int) sim.Time { return 7 },
		"organ-pipe": func(i int) sim.Time { return sim.Time(min(i, n-i)) },
	}
	for name, ts := range shapes {
		var r recorder
		r.init(limit)
		pushed := make([]event, n)
		for i := range pushed {
			pushed[i] = event{name: "e", ph: 'X', track: "t", ts: ts(i)}
			r.push(&pushed[i])
		}
		// The first compaction comes when the slots are full, each later
		// one after the slack refills, and the last one at export.
		compactions := int64((n-r.slots)/(r.slots-limit) + 2)
		if budget := compactions * 8 * 2 * limit * int64(bits.Len(2*limit)); r.compares > budget {
			t.Errorf("%s: %d comparisons for %d pushes, budget %d", name, r.compares, n, budget)
		}
		checkRecorder(t, &r, pushed, limit)
	}
}

// TestKeySelectionFallback runs the key selection with its partition
// budget spent from the start, or after one partition made unproductive
// by placing the three smallest keys where the pivot is sampled, so the
// sort that bounds the worst case is what produces the answer.
func TestKeySelectionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, budget := range []int{0, 1} {
		for k := 1; k <= 190; k += 27 {
			keys := make([]int64, 200)
			for i := range keys {
				keys[i] = 3 + rng.Int63n(60) // heavy ties
			}
			if budget == 1 {
				for i, s := range pivotSamples(0, len(keys)-1) {
					keys[s] = int64(i)
				}
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			var r recorder
			a := slices.Clone(keys)
			if got := r.kthLargest(a, k, budget); got != want[len(want)-k] {
				t.Fatalf("budget %d k %d: kthLargest = %d, want %d", budget, k, got, want[len(want)-k])
			}
			if slices.Sort(a); !slices.Equal(a, want) {
				t.Fatalf("budget %d k %d: the selection lost or invented keys", budget, k)
			}
		}
	}
}

// TestFullRingAllocates bounds the bytes one default-size ring allocates
// over a full trial's life: filled, compacted several times and exported.
// The slots are 1.5×RingCap events, allocated once each; the key array,
// the selection's copy of it and the slot lists are 8 bytes a slot.
func TestFullRingAllocates(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, push, next := fullRecorder(pushOrders()[0].ts)
	for i := 0; i < 1<<17; i++ {
		push(next + i)
	}
	r.tracks()
	r.events()
	runtime.ReadMemStats(&after)
	const budget = 22 // MB; a doubling buffer of 144-byte events took 37.7
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("a full default ring allocated %.1f MB", mb)
	if mb > budget {
		t.Errorf("a full default ring allocated %.1f MB, want at most %d MB", mb, budget)
	}
}

// pushOrder is an arrival order: event i carries timestamp ts(i).
type pushOrder struct {
	name string
	ts   func(i int) sim.Time
}

// pushOrders are the three arrival orders that matter to a full recorder:
// the simulator's (ascending), a bounded reordering (ascending within a
// window) and the worst for the floor test (descending: every
// event is below the kept range).
func pushOrders() []pushOrder {
	jitter := make([]sim.Time, 1<<12)
	rng := rand.New(rand.NewSource(1))
	for i := range jitter {
		jitter[i] = sim.Time(rng.Intn(2000))
	}
	return []pushOrder{
		{"ascending", func(i int) sim.Time { return sim.Time(10 * i) }},
		{"bounded_disorder", func(i int) sim.Time { return sim.Time(10*i) - jitter[i%len(jitter)] }},
		{"descending", func(i int) sim.Time { return sim.Time(-10 * i) }},
	}
}

// fullRecorder returns a default-size ring that is already full — the
// ring, its slack and the first compaction are behind it — push(i), which
// records span event i at ts(i) into it, and the index to go on from.
func fullRecorder(ts func(i int) sim.Time) (r *recorder, push func(i int), next int) {
	const limit = 1 << 16
	names, tracks := [4]string{"queue", "xmit", "wire", "deliver"}, [8]string{}
	for i := range tracks {
		tracks[i] = fmt.Sprintf("span f%d", i)
	}
	r = &recorder{}
	r.init(limit)
	e := &event{cat: "span", ph: 'X', dur: 1200, nargs: 3,
		args: [maxArgs]Arg{{"seq", 0}, {"hop", 1}, {"parent", 0}}}
	push = func(i int) {
		e.name, e.track, e.ts = names[i%len(names)], tracks[i%len(tracks)], ts(i)
		e.args[0].V = float64(i)
		r.push(e)
	}
	fill := r.slots + 1
	for i := 0; i < fill; i++ {
		push(i)
	}
	return r, push, fill
}

// BenchmarkRecorderPush prices one push into a full default-size ring
// (ns/op is per event) for each arrival order.
func BenchmarkRecorderPush(b *testing.B) {
	for _, o := range pushOrders() {
		b.Run(o.name, func(b *testing.B) {
			_, push, next := fullRecorder(o.ts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(next + i)
			}
		})
	}
}

// TestRecorderPushAllocs is the benchmark's alloc budget as a tier-1 test:
// pushes into a full recorder in the sequential engine's order — three
// more compactions' worth — allocate nothing (the buffer is at full size
// by then; compaction is in place).
func TestRecorderPushAllocs(t *testing.T) {
	_, push, next := fullRecorder(pushOrders()[0].ts) // ascending
	const batch = 1 << 10
	allocs := testing.AllocsPerRun(3*(1<<16)/batch, func() {
		for i := 0; i < batch; i++ {
			push(next)
			next++
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per %d ascending pushes into a full recorder, want 0", allocs, batch)
	}
}
