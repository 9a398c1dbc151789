package sim

import (
	"math/rand"
	"testing"
)

// Toy workload for group equivalence: N entities randomly ping each
// other with per-entity jittered delays that are at least `lookahead`
// apart (standing in for link propagation), while a control-side sampler
// periodically reads the entities' counters (standing in for telemetry).
// The same entity code runs on a single sequential simulator and on a
// sharded group; per-entity fire logs, counter totals, and every sampler
// observation must match exactly.

const (
	pingLookahead = Time(100)
	pingJitter    = 1000
)

type pingEnt struct {
	id    int
	shard int
	sim   *Simulator
	h     *pingHarness
	rng   *rand.Rand
	hops  int
	log   []Time
}

func (e *pingEnt) RunEvent() {
	e.hops++
	now := e.sim.Now()
	e.log = append(e.log, now)
	if e.hops >= 40 {
		return // bound the storm
	}
	dst := e.h.ents[e.rng.Intn(len(e.h.ents))]
	at := now + pingLookahead + Time(e.rng.Intn(pingJitter))
	if g := e.h.group; g != nil && dst.shard != e.shard {
		g.Post(e.shard, dst.shard, at, now, NeutralRank, dst)
	} else {
		dst.sim.Schedule(at, dst)
	}
}

type pingHarness struct {
	ents    []*pingEnt
	group   *Group
	samples []int
}

// newPingHarness builds N entities over nShards (0 = sequential). The
// control simulator carries the sampler in both modes.
func newPingHarness(seed int64, n, nShards int) (*pingHarness, *Simulator) {
	ctl := New(seed)
	h := &pingHarness{}
	var g *Group
	if nShards > 0 {
		g = NewGroup(ctl, nShards, pingLookahead)
		h.group = g
	}
	for i := 0; i < n; i++ {
		e := &pingEnt{id: i, h: h, rng: rand.New(rand.NewSource(SubSeed(seed, uint64(i))))}
		if g != nil {
			e.shard = i % nShards
			e.sim = g.Shard(e.shard)
		} else {
			e.sim = ctl
		}
		h.ents = append(h.ents, e)
	}
	// Seed one ping per entity at staggered start times (pre-run, from
	// the control thread — direct scheduling is fine here).
	for _, e := range h.ents {
		e.sim.Schedule(Time(1+e.id), e)
	}
	// Control sampler: every 97 time units, snapshot the global hop
	// count. In the sharded mode this runs on the barrier thread via the
	// merged same-instant step, so it must observe exactly the sequential
	// prefix of events.
	var tick func()
	tick = func() {
		total := 0
		for _, e := range h.ents {
			total += e.hops
		}
		h.samples = append(h.samples, total)
		ctl.After(97, tick)
	}
	ctl.After(97, tick)
	return h, ctl
}

func runPing(t *testing.T, seed int64, n, nShards int, end Time) *pingHarness {
	t.Helper()
	h, ctl := newPingHarness(seed, n, nShards)
	ctl.RunUntil(end)
	if ctl.Now() != end {
		t.Fatalf("shards=%d: Now = %v, want %v (sampler keeps the system live)", nShards, ctl.Now(), end)
	}
	return h
}

func TestGroupMatchesSequential(t *testing.T) {
	for _, nShards := range []int{1, 2, 3, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			want := runPing(t, seed, 8, 0, 20_000)
			got := runPing(t, seed, 8, nShards, 20_000)
			for i := range want.ents {
				w, g := want.ents[i], got.ents[i]
				if w.hops != g.hops {
					t.Fatalf("shards=%d seed=%d ent=%d: hops %d != %d", nShards, seed, i, g.hops, w.hops)
				}
				for j := range w.log {
					if w.log[j] != g.log[j] {
						t.Fatalf("shards=%d seed=%d ent=%d fire %d: t=%v, want %v",
							nShards, seed, i, j, g.log[j], w.log[j])
					}
				}
			}
			if len(want.samples) != len(got.samples) {
				t.Fatalf("shards=%d seed=%d: %d samples, want %d", nShards, seed, len(got.samples), len(want.samples))
			}
			for i := range want.samples {
				if want.samples[i] != got.samples[i] {
					t.Fatalf("shards=%d seed=%d sample %d: %d, want %d",
						nShards, seed, i, got.samples[i], want.samples[i])
				}
			}
			if got.group != nil && got.group.Ties != 0 {
				t.Fatalf("shards=%d seed=%d: %d ambiguous ties (jitter should prevent double collisions)",
					nShards, seed, got.group.Ties)
			}
		}
	}
}

func TestGroupExecutedAggregates(t *testing.T) {
	seq, ctlSeq := newPingHarness(7, 6, 0)
	ctlSeq.RunUntil(10_000)
	sh, ctlSh := newPingHarness(7, 6, 3)
	ctlSh.RunUntil(10_000)
	_ = seq
	_ = sh
	if ctlSeq.Executed() != ctlSh.Executed() {
		t.Fatalf("Executed: sharded %d, sequential %d", ctlSh.Executed(), ctlSeq.Executed())
	}
	if ctlSh.Pending() == 0 {
		t.Fatal("Pending should count the sampler reschedule")
	}
}

// TestGroupControlPulse: under a group the control simulator runs only
// through the merged same-instant step, never through its own run loop.
// Its pulse must be published all the same — every 1024 events from the
// one dispatch point, and once more when the run returns.
func TestGroupControlPulse(t *testing.T) {
	ctl := New(1)
	NewGroup(ctl, 2, 10)
	var p Pulse
	ctl.SetPulse(&p)
	const total = 5000 // not a multiple of 1024: only the final publish reports it
	var midRun uint64
	n := 0
	var tick eventFunc
	tick = func() {
		if n++; n == 3000 {
			_, midRun = p.Load()
		}
		if n < total {
			ctl.ScheduleAfter(7, tick)
		}
	}
	ctl.Schedule(1, tick)
	ctl.Run()
	if midRun != 2048 {
		t.Errorf("pulse read inside control event 3000 reports %d executed, want 2048", midRun)
	}
	if now, executed := p.Load(); executed != total || now != ctl.Now() || now == 0 {
		t.Errorf("pulse after the run = (%v, %d), want (%v, %d)", now, executed, ctl.Now(), total)
	}
}

func TestGroupPreRunStop(t *testing.T) {
	_, ctl := newPingHarness(1, 4, 2)
	ctl.Stop()
	ctl.RunUntil(5_000)
	if ctl.Executed() != 0 || ctl.Now() != 0 {
		t.Fatalf("pre-run Stop on group: executed=%d now=%v", ctl.Executed(), ctl.Now())
	}
	ctl.RunUntil(5_000)
	if ctl.Executed() == 0 {
		t.Fatal("group did not resume after consumed Stop")
	}
}

func TestGroupMidRunStop(t *testing.T) {
	_, ctl := newPingHarness(1, 4, 2)
	stopAt := Time(0)
	ctl.At(1_000, func() {
		stopAt = ctl.Now()
		ctl.Stop()
	})
	ctl.RunUntil(50_000)
	if stopAt == 0 {
		t.Fatal("stop hook never ran")
	}
	if ctl.Now() > 2_000 {
		t.Fatalf("group overshot a mid-run Stop: Now = %v", ctl.Now())
	}
	ctl.RunUntil(50_000)
	if ctl.Now() != 50_000 {
		t.Fatalf("group did not resume after mid-run Stop: Now = %v", ctl.Now())
	}
}

func TestGroupTailContract(t *testing.T) {
	// Drained group: clocks settle at the last executed instant, not end.
	ctl := New(3)
	g := NewGroup(ctl, 2, 10)
	fired := Time(0)
	g.Shard(0).At(25, func() { fired = g.Shard(0).Now() })
	ctl.RunUntil(1_000)
	if fired != 25 {
		t.Fatalf("shard event did not fire: %v", fired)
	}
	if ctl.Now() != 25 || g.Shard(1).Now() != 25 {
		t.Fatalf("drained tail: ctl=%v sh1=%v, want 25", ctl.Now(), g.Shard(1).Now())
	}
	// Cancelled-only beyond end: no time invented (bugfix 2, group form).
	tm := g.Shard(1).At(500, func() { t.Fatal("stopped shard timer fired") })
	tm.Stop()
	ctl.RunUntil(1_000)
	if ctl.Now() != 25 {
		t.Fatalf("cancelled-only group tail: Now = %v, want 25", ctl.Now())
	}
	// Live event past end: every clock advances to end in lockstep.
	g.Shard(1).At(5_000, func() {})
	ctl.RunUntil(1_000)
	if ctl.Now() != 1_000 || g.Shard(0).Now() != 1_000 {
		t.Fatalf("live-past-end group tail: ctl=%v sh0=%v, want 1000", ctl.Now(), g.Shard(0).Now())
	}
}
