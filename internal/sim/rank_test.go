package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// Arrival-rank ordering (ScheduleAfterRank): events that collide on both
// deadline and schedule instant execute in rank order — neutral events
// first, then ascending rank, seq within a rank — identically in the
// wheel, the far heap, and across the sharded group's mailbox merge.
// This is what makes simultaneous link deliveries arbitrate the same way
// in both engines.

// rankTarget logs its id when run.
type rankTarget struct {
	id  int
	log *[]int
}

func (r *rankTarget) RunEvent() { *r.log = append(*r.log, r.id) }

// scheduleRankScript schedules, at one instant, a shuffled mix of ranked
// and neutral events sharing one delay d, and returns the fire order.
func scheduleRankScript(seed int64, d Time) []int {
	s := New(1)
	var log []int
	rng := rand.New(rand.NewSource(seed))
	// ids 0..9 are ranked events with rank == id; ids 100+ are neutral.
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101, 102}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	s.At(10, func() {
		for _, id := range ids {
			tgt := &rankTarget{id: id, log: &log}
			if id < 100 {
				s.ScheduleAfterRank(d, tgt, int32(id))
			} else {
				s.ScheduleAfter(d, tgt)
			}
		}
	})
	s.Run()
	return log
}

func TestRankOrdersSimultaneousEvents(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, d := range []Time{0, 500, 3 * horizon} {
			got := scheduleRankScript(seed, d)
			if len(got) != 13 {
				t.Fatalf("seed %d d=%v: fired %d of 13 events", seed, d, len(got))
			}
			// Neutral events (scheduled in shuffled order, all equal keys)
			// keep insertion order among themselves and run first; ranked
			// events follow in ascending rank regardless of insertion order.
			neutral, ranked := got[:3], got[3:]
			for _, id := range neutral {
				if id < 100 {
					t.Fatalf("seed %d d=%v: ranked event %d ran before neutral ones: %v",
						seed, d, id, got)
				}
			}
			for i, id := range ranked {
				if id != i {
					t.Fatalf("seed %d d=%v: ranked events out of rank order: %v", seed, d, got)
				}
			}
		}
	}
}

// Ranked and neutral schedules mixed at colliding instants must fire
// exactly as the reference queue fires them.
func TestRankLaneHeapEquivalence(t *testing.T) {
	run := func(e engine, seed int64) []int {
		var log []int
		rng := rand.New(rand.NewSource(seed))
		var id int
		sched := func() {
			myID := id
			id++
			rank := NeutralRank
			if rng.Intn(2) == 0 {
				rank = int32(rng.Intn(4))
			}
			d := Time(100 * (1 + rng.Intn(3)))
			if rng.Intn(4) == 0 {
				d += horizon
			}
			e.schedAt(e.Now()+d, rank, func() { log = append(log, myID) })
		}
		for i := 0; i < 40; i++ {
			e.schedAt(Time(50*rng.Intn(6)), NeutralRank, func() {
				for j := 0; j < 3; j++ {
					sched()
				}
			})
		}
		e.RunUntil(maxTime)
		return log
	}
	for seed := int64(0); seed < 30; seed++ {
		want := run(&refQueue{}, seed)
		got := run(simEngine{New(1)}, seed)
		if !slices.Equal(want, got) {
			t.Fatalf("seed %d: reference fired %v, engine %v", seed, want, got)
		}
	}
}

// Cross-shard mail colliding on (at, schedAt) from different source
// shards must execute in rank order, not post or source order — the
// sharded side of the canonical arbitration.
func TestGroupRankedMailCanonical(t *testing.T) {
	ctl := New(1)
	g := NewGroup(ctl, 3, 100)
	var log []int
	// Shards 1 and 2 each post two ranked events to shard 0 for the same
	// deadline and schedule instant, with ranks interleaved across the
	// sources so source order and rank order disagree.
	g.Shard(1).At(0, func() {
		g.Post(1, 0, 200, 0, 0, &rankTarget{id: 0, log: &log})
		g.Post(1, 0, 200, 0, 3, &rankTarget{id: 3, log: &log})
	})
	g.Shard(2).At(0, func() {
		g.Post(2, 0, 200, 0, 1, &rankTarget{id: 1, log: &log})
		g.Post(2, 0, 200, 0, 2, &rankTarget{id: 2, log: &log})
	})
	ctl.Run()
	if len(log) != 4 {
		t.Fatalf("delivered %d of 4 mails", len(log))
	}
	for i, id := range log {
		if id != i {
			t.Fatalf("mail executed out of rank order: %v", log)
		}
	}
	if g.Ties != 0 {
		t.Errorf("distinct ranks must not count as ties, got %d", g.Ties)
	}
}
