package exp

import (
	"bytes"
	"reflect"
	"testing"

	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// The sharded engine must be invisible in the results: a partitioned
// trial is byte-identical to the sequential one (DESIGN.md §10). These
// tests run the real experiments both ways and compare every reported
// quantity, including the raw time series behind the tables. Events is
// compared too — a delivery is one event whether it is scheduled locally
// or posted through the mailbox.

func TestQueueFairnessShardedIdentical(t *testing.T) {
	for _, proto := range []Proto{TFC, TCP} {
		cfg := QueueFairnessConfig{}
		cfg.Proto = proto
		cfg.Seed = 7
		seq := QueueFairness(cfg)

		for _, shards := range []int{2, 3, -1} {
			c := cfg
			c.Shards = shards
			got := QueueFairness(c)
			if !reflect.DeepEqual(seq, got) {
				t.Errorf("%s: shards=%d diverges from sequential:\nseq: %+v\ngot: %+v",
					proto, shards, seq, got)
			}
			a := FormatQueueFairness([]*QueueFairnessResult{seq})
			b := FormatQueueFairness([]*QueueFairnessResult{got})
			if a != b {
				t.Errorf("%s: shards=%d rendered table differs:\n%s\nvs\n%s", proto, shards, a, b)
			}
		}
	}
}

func TestRobustnessShardedIdentical(t *testing.T) {
	cfg := RobustnessConfig{}
	cfg.Proto = TFC
	cfg.Seed = 11
	cfg.Flows = 4
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Blackout = 5 * sim.Millisecond
	cfg.Tail = 50 * sim.Millisecond
	seq := Robustness(cfg)

	c := cfg
	c.Shards = 2
	got := Robustness(c)
	if !reflect.DeepEqual(seq, got) {
		t.Errorf("sharded robustness diverges from sequential:\nseq: %+v\ngot: %+v", seq, got)
	}
}

// The full protocol matrix under long blackouts, at the registry's own
// seed schedule. Blackouts synchronize senders — RTO timers armed
// together, backlogs released together — which makes simultaneous
// same-nanosecond link deliveries from different shards routine rather
// than measure-zero. These exact (scenario, protocol, seed) cells are
// the ones that diverged before arrival ranking (sim.ScheduleAfterRank)
// gave simultaneous deliveries a canonical engine-independent order:
// bfc and tinytcp, whose pause/pacing gates phase-lock transmissions,
// caught ties the seq-order merge broke differently than the sequential
// engine.
func TestRobustnessShardedIdenticalAllProtos(t *testing.T) {
	for si, blackout := range []sim.Time{50 * sim.Millisecond, 500 * sim.Millisecond} {
		for pi, proto := range AllProtos {
			cfg := RobustnessConfig{}
			cfg.Proto = proto
			// The registry runs scenarios blackout-5ms, -50ms, -500ms, then
			// loss; trial index = scenario*len(protos) + proto.
			cfg.Seed = runner.DeriveSeed(1, (si+1)*len(AllProtos)+pi)
			cfg.Blackout = blackout
			seq := Robustness(cfg)

			c := cfg
			c.Shards = 3
			got := Robustness(c)
			if !reflect.DeepEqual(seq, got) {
				t.Errorf("%s blackout=%s: sharded diverges from sequential:\nseq: %+v\ngot: %+v",
					proto, blackout, seq, got)
			}
		}
	}
}

func TestPermutationShardedIdentical(t *testing.T) {
	cfg := PermutationConfig{}
	cfg.Proto = TFC
	cfg.Seed = 3
	cfg.K = 4
	cfg.Duration = 30 * sim.Millisecond
	seq := Permutation(cfg)

	for _, shards := range []int{2, 4} {
		c := cfg
		c.Shards = shards
		got := Permutation(c)
		if got.Group == nil {
			t.Errorf("shards=%d: no group self-profiling stats on a sharded run", shards)
		}
		// Group is engine self-profiling (epoch counts, wall timing), not
		// part of the deterministic result surface; nil it for the compare.
		got.Group = nil
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("shards=%d fat-tree permutation diverges from sequential:\nseq: %+v\ngot: %+v",
				shards, seq, got)
		}
	}
}

// Sharding must also be invisible to the telemetry layer: the merged
// trace and metrics files — probe events recorded from shard
// goroutines, gauges sampled at epoch barriers — must be byte-identical
// to the sequential run's.
func TestShardedTelemetryByteIdentical(t *testing.T) {
	run := func(shards int) (trace, metrics []byte) {
		c := telemetry.NewCollector(telemetry.Options{})
		cfg := QueueFairnessConfig{}
		cfg.Proto = TFC
		cfg.Seed = 9
		cfg.Shards = shards
		cfg.Telemetry = c.Trial("qf")
		QueueFairness(cfg)
		var tb, mb bytes.Buffer
		if err := c.WriteTrace(&tb); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		if err := c.WriteMetrics(&mb); err != nil {
			t.Fatalf("WriteMetrics: %v", err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	seqTrace, seqMetrics := run(0)
	shTrace, shMetrics := run(3)
	if !bytes.Equal(seqTrace, shTrace) {
		t.Errorf("sharded trace.json differs from sequential (%d vs %d bytes)",
			len(seqTrace), len(shTrace))
	}
	if !bytes.Equal(seqMetrics, shMetrics) {
		t.Errorf("sharded metrics.json differs from sequential (%d vs %d bytes)",
			len(seqMetrics), len(shMetrics))
	}
}

// A shard count beyond the topology's natural decomposition clamps
// rather than failing, and still matches sequential output.
func TestShardClampBeyondNatural(t *testing.T) {
	cfg := QueueFairnessConfig{}
	cfg.Proto = TFC
	cfg.Seed = 5
	seq := QueueFairness(cfg)
	c := cfg
	c.Shards = 64 // Testbed decomposes into 3 leaf subtrees
	got := QueueFairness(c)
	if !reflect.DeepEqual(seq, got) {
		t.Errorf("clamped shard count diverges from sequential")
	}
}
