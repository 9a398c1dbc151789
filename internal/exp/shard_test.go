package exp

import (
	"reflect"
	"strings"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// The sharded engine must be invisible in the results: a partitioned
// trial is byte-identical to the sequential one (DESIGN.md §10). Only the
// fat tree shards, so the permutation over it is the oracle: every
// reported quantity is compared, Events included — a delivery is one
// event whether it is scheduled locally or posted through the mailbox.

func TestPermutationShardedIdentical(t *testing.T) {
	for _, proto := range AllProtos {
		cfg := PermutationConfig{}
		cfg.Proto = proto
		cfg.Seed = 3
		cfg.K = 4
		cfg.Duration = 30 * sim.Millisecond
		seq := Permutation(cfg)

		for _, shards := range []int{2, 4} {
			c := cfg
			c.Shards = shards
			if got := Permutation(c); !reflect.DeepEqual(seq, got) {
				t.Errorf("%s: shards=%d fat-tree permutation diverges from sequential:\nseq: %+v\ngot: %+v",
					proto, shards, seq, got)
			}
		}
	}
}

// Only the fat tree shards: at Shards 4 it builds a partitioned network,
// every other builder a sequential one.
func TestShardsNeedAPlan(t *testing.T) {
	cfg := TopoConfig{Proto: TCP, Shards: 4}
	star, _, _, _ := Star(cfg, 4, TestbedRate, TestbedBuf)
	for _, tc := range []struct {
		name        string
		net         *netsim.Network
		partitioned bool
	}{
		{"Testbed", Testbed(cfg).Net, false},
		{"Star", star.Net, false},
		{"FatTree", FatTree(cfg, 4, netsim.Gbps, TestbedBuf).Net, true},
		{"MultiBottleneck", MultiBottleneck(cfg).Net, false},
		{"LeafSpine", LeafSpine(cfg, 3, 4, TestbedBuf).Net, false},
	} {
		if got := tc.net.Group() != nil; got != tc.partitioned {
			t.Errorf("%s at Shards 4: partitioned = %v, want %v", tc.name, got, tc.partitioned)
		}
	}
}

// A shard count beyond the fat tree's k pods clamps to k rather than
// failing, and still matches sequential output.
func TestShardClampBeyondNatural(t *testing.T) {
	cfg := PermutationConfig{}
	cfg.Proto = TFC
	cfg.Seed = 5
	cfg.K = 4
	cfg.Duration = 30 * sim.Millisecond
	cfg.Shards = 64
	if n := FatTree(cfg.TopoConfig, cfg.K, netsim.Gbps, TestbedBuf).Net.Shards(); n != 4 {
		t.Fatalf("k=4 fat tree at Shards 64 runs on %d shards, want 4", n)
	}
	got := Permutation(cfg)
	cfg.Shards = 0
	if seq := Permutation(cfg); !reflect.DeepEqual(seq, got) {
		t.Errorf("clamped shard count diverges from sequential:\nseq: %+v\ngot: %+v", seq, got)
	}
}

// Observation needs a sequential trial: a fat tree asked to shard and to
// carry telemetry refuses at build time instead of running probes on
// shard goroutines.
func TestShardedFatTreeRefusesTelemetry(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "partitioned") {
			t.Errorf("FatTree with Shards 2 and telemetry: panic %q, want one naming the partitioned network", msg)
		}
	}()
	cfg := TopoConfig{Proto: TFC, Shards: 2}
	cfg.Telemetry = telemetry.NewCollector(telemetry.Options{}).Trial("k")
	FatTree(cfg, 4, netsim.Gbps, TestbedBuf)
}
