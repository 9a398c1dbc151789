package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/obs"
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

		for _, shards := range []int{2, 3} {
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
// to the sequential run's. The robustness blackout puts fault and
// link-down spans, which the control simulator opens and shards close,
// into the trace.
func TestShardedTelemetryByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(shards int, tel *telemetry.Trial)
		must string // a trace fragment the cell must produce
	}{
		{"queue-fairness", func(shards int, tel *telemetry.Trial) {
			cfg := QueueFairnessConfig{}
			cfg.Proto, cfg.Seed, cfg.Shards, cfg.Telemetry = TFC, 9, shards, tel
			QueueFairness(cfg)
		}, `"cat":"tfc"`},
		{"robustness-blackout", func(shards int, tel *telemetry.Trial) {
			cfg := RobustnessConfig{FaultScenario: DefaultScenarios[0]}
			cfg.Proto, cfg.Seed, cfg.Shards, cfg.Telemetry = TFC, 9, shards, tel
			Robustness(cfg)
		}, `"name":"link-down `},
	} {
		export := func(shards int) (trace, metrics []byte) {
			c := telemetry.NewCollector(telemetry.Options{})
			tc.run(shards, c.Trial(tc.name))
			var tb, mb bytes.Buffer
			if err := c.WriteTrace(&tb); err != nil {
				t.Fatalf("%s: WriteTrace: %v", tc.name, err)
			}
			if err := c.WriteMetrics(&mb); err != nil {
				t.Fatalf("%s: WriteMetrics: %v", tc.name, err)
			}
			return tb.Bytes(), mb.Bytes()
		}
		seqTrace, seqMetrics := export(0)
		shTrace, shMetrics := export(3)
		if !bytes.Contains(seqTrace, []byte(tc.must)) {
			t.Errorf("%s: trace has no %s event: the identity check is vacuous", tc.name, tc.must)
		}
		if !bytes.Equal(seqTrace, shTrace) {
			t.Errorf("%s: sharded trace.json differs from sequential (%d vs %d bytes)",
				tc.name, len(seqTrace), len(shTrace))
		}
		if !bytes.Equal(seqMetrics, shMetrics) {
			t.Errorf("%s: sharded metrics.json differs from sequential (%d vs %d bytes)",
				tc.name, len(seqMetrics), len(shMetrics))
		}
	}
}

// The observatory is a pure reader under sharding too: fig08-10's cells,
// observed the way the facade attaches it (packet spans, watchdogs, the
// flight ring), give the unobserved results and event counts at Shards 1
// and 3, trip no watchdog, and export byte-identical trace and metrics —
// also when a 512-slot recorder evicts nearly every span, in an arrival
// order three shard goroutines interleave differently on every run.
func TestShardedObservatoryByteIdentical(t *testing.T) {
	type run struct {
		res            []*QueueFairnessResult
		trace, metrics []byte
		violations     uint64
	}
	sweep := func(shards int, o *obs.Observatory, ringCap int) run {
		t.Helper()
		col := telemetry.NewCollector(telemetry.Options{RingCap: ringCap})
		o.Attach("fig08-10", col)
		cfg := QueueFairnessConfig{}
		cfg.Shards = shards
		rs, err := Sweep(context.Background(), &runner.Pool{Parallelism: 2, BaseSeed: 7}, col,
			PerProto(cfg, AllProtos), ProtoKey, QueueFairness)
		if err != nil {
			t.Fatal(err)
		}
		o.FinishRun("fig08-10")
		var tb, mb bytes.Buffer
		if err := col.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		return run{rs, tb.Bytes(), mb.Bytes(), 0}
	}
	observed := func(shards int) run {
		o := obs.New(obs.Options{SpanEvery: 2, SpanSeed: 7, Watchdogs: true, FlightDir: "-"})
		r := sweep(shards, o, 0)
		r.violations = o.Violations()
		return r
	}

	plain := sweep(1, nil, 0)
	seq, sharded := observed(1), observed(3)
	for _, r := range []struct {
		name string
		run
	}{{"shards=1", seq}, {"shards=3", sharded}} {
		if !reflect.DeepEqual(plain.res, r.res) {
			t.Errorf("observed %s results (events included) differ from the unobserved run", r.name)
		}
		if r.violations != 0 {
			t.Errorf("observed %s tripped %d watchdog violation(s)", r.name, r.violations)
		}
	}
	if !bytes.Contains(seq.trace, []byte(`"cat":"span"`)) {
		t.Error("trace contains no packet spans: the identity check is vacuous")
	}
	if !bytes.Equal(seq.trace, sharded.trace) {
		t.Error("observed trace differs between Shards 1 and 3")
	}
	if !bytes.Equal(seq.metrics, sharded.metrics) {
		t.Error("observed metrics differ between Shards 1 and 3")
	}

	evict := func(shards int) run {
		return sweep(shards, obs.New(obs.Options{SpanEvery: 1, SpanSeed: 7}), 512)
	}
	ev1, ev3 := evict(1), evict(3)
	if !bytes.Equal(ev1.trace, ev3.trace) {
		t.Error("trace differs between Shards 1 and 3 when the recorder evicts")
	}
	if !bytes.Equal(ev1.metrics, ev3.metrics) {
		t.Error("metrics differ between Shards 1 and 3 when the recorder evicts")
	}
	var mf struct {
		Trials []struct {
			Events  int   `json:"trace_events"`
			Dropped int64 `json:"trace_dropped"`
		} `json:"trials"`
	}
	if err := json.Unmarshal(ev1.metrics, &mf); err != nil {
		t.Fatal(err)
	}
	evicting := 0
	for _, tr := range mf.Trials {
		if tr.Dropped > 0 {
			evicting++
			if tr.Events != 512 {
				t.Errorf("a trial that dropped %d events retains %d, want 512", tr.Dropped, tr.Events)
			}
		}
	}
	if evicting == 0 {
		t.Error("no trial overflowed its recorder: the identity check is vacuous")
	}
}

// Only builders that record a partition plan shard: at Shards 4 the
// Testbed, Star and fat tree build a partitioned network, the others a
// sequential one.
func TestShardsNeedAPlan(t *testing.T) {
	cfg := TopoConfig{Proto: TCP, Shards: 4}
	star, _, _, _ := Star(cfg, 4, TestbedRate, TestbedBuf)
	for _, tc := range []struct {
		name        string
		net         *netsim.Network
		partitioned bool
	}{
		{"Testbed", Testbed(cfg).Net, true},
		{"Star", star.Net, true},
		{"FatTree", FatTree(cfg, 4, netsim.Gbps, TestbedBuf).Net, true},
		{"MultiBottleneck", MultiBottleneck(cfg).Net, false},
		{"LeafSpine", LeafSpine(cfg, 3, 4, TestbedBuf).Net, false},
	} {
		if got := tc.net.Group() != nil; got != tc.partitioned {
			t.Errorf("%s at Shards 4: partitioned = %v, want %v", tc.name, got, tc.partitioned)
		}
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
