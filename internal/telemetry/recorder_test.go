package telemetry

import (
	"fmt"
	"math/bits"
	"math/rand"
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
		if evs[i] != want[i] {
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
		compactions := int64(n/limit + 1)
		if budget := compactions * 8 * compactAt * limit * int64(bits.Len(compactAt*limit)); r.compares > budget {
			t.Errorf("%s: %d comparisons for %d pushes, budget %d", name, r.compares, n, budget)
		}
		checkRecorder(t, &r, pushed, limit)
	}
}

// TestSelectTopFallback runs the selection with its partition budget
// spent from the start or after one unproductive partition, so the sort
// that bounds the worst case is what produces the answer.
func TestSelectTopFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, budget := range []int{0, 1} {
		for k := 1; k <= 200; k += 37 {
			evs := randomEvents(rng, 200)
			r := recorder{buf: append([]event(nil), evs...)}
			r.selectTop(k, budget)
			want := oracleTop(evs, k)
			if r.buf[k-1] != want[0] {
				t.Fatalf("budget %d k %d: buf[k-1] = %+v, want the k-th largest %+v", budget, k, r.buf[k-1], want[0])
			}
			for i, e := range oracleTop(r.buf[:k], k) {
				if e != want[i] {
					t.Fatalf("budget %d k %d: buf[:k] is not the top k: %+v, want %+v", budget, k, e, want[i])
				}
			}
		}
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

// fullRecorder returns push(i), which records span event i at ts(i) into a
// default-size ring that is already full — the ring, its slack and the
// first compaction are behind it — and the index to go on from.
func fullRecorder(ts func(i int) sim.Time) (push func(i int), next int) {
	const limit = 1 << 16
	names, tracks := [4]string{"queue", "xmit", "wire", "deliver"}, [8]string{}
	for i := range tracks {
		tracks[i] = fmt.Sprintf("span f%d", i)
	}
	r := &recorder{}
	r.init(limit)
	r.reserve(compactAt * limit)
	e := &event{cat: "span", ph: 'X', dur: 1200, nargs: 3,
		args: [maxArgs]Arg{{"seq", 0}, {"hop", 1}, {"parent", 0}}}
	push = func(i int) {
		e.name, e.track, e.ts = names[i%len(names)], tracks[i%len(tracks)], ts(i)
		e.args[0].V = float64(i)
		r.push(e)
	}
	const fill = compactAt*limit + 1
	for i := 0; i < fill; i++ {
		push(i)
	}
	return push, fill
}

// BenchmarkRecorderPush prices one push into a full default-size ring
// (ns/op is per event) for each arrival order.
func BenchmarkRecorderPush(b *testing.B) {
	for _, o := range pushOrders() {
		b.Run(o.name, func(b *testing.B) {
			push, next := fullRecorder(o.ts)
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
	push, next := fullRecorder(pushOrders()[0].ts) // ascending
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
