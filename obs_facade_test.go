package tfcsim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tfcsim/internal/obs"
	"tfcsim/internal/telemetry"
)

func TestObservatoryResultsNeutral(t *testing.T) {
	// Attaching the observatory the way scripts/identity.sh's observed run
	// does — packet spans, watchdogs and flight ring armed, trace and
	// metrics exported, two workers, three shards — must not perturb any
	// experiment result: every obs computation is a pure read off the
	// probe stream. A probe that schedules an event changes no table, only
	// the event counts, so those are compared too.
	e, ok := Find("fig08-10")
	if !ok {
		t.Fatal("fig08-10 not in registry")
	}
	run := func(o *Observatory) *Result {
		t.Helper()
		dir := t.TempDir()
		res, err := e.Run(context.Background(), RunOptions{
			Scale: Quick, Seed: 7, Parallelism: 2, Shards: 3,
			Telemetry: &telemetry.Options{
				TracePath:   filepath.Join(dir, "trace.json"),
				MetricsPath: filepath.Join(dir, "metrics.json"),
			},
			Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	o := NewObservatory(ObsOptions{SpanEvery: 2, SpanSeed: 7, Watchdogs: true, FlightDir: "-"})
	observed := run(o)
	if plain.Text != observed.Text {
		t.Error("experiment output changed when the observatory was attached")
	}
	if plain.Events != observed.Events {
		t.Errorf("observatory changed the event count: %d -> %d", plain.Events, observed.Events)
	}
	if len(plain.Trials) != len(observed.Trials) {
		t.Fatalf("observatory changed the trial count: %d -> %d", len(plain.Trials), len(observed.Trials))
	}
	for i, m := range plain.Trials {
		if got := observed.Trials[i]; got.Index != m.Index || got.Events != m.Events {
			t.Errorf("trial %d: %d events -> trial %d: %d events", m.Index, m.Events, got.Index, got.Events)
		}
	}
	if o.Violations() != 0 {
		t.Errorf("healthy run tripped %d watchdog violation(s)", o.Violations())
	}
}

func TestPacketSpanByteIdentical(t *testing.T) {
	// Causal packet spans are sampled by a pure function of (flow, seed)
	// and recorded on the virtual timeline, so the exported trace must be
	// byte-identical at any worker parallelism and shard count. fig08-10
	// honors -shards, making it the case where both axes actually vary.
	e, ok := Find("fig08-10")
	if !ok {
		t.Fatal("fig08-10 not in registry")
	}
	run := func(par, shards int) []byte {
		t.Helper()
		dir := t.TempDir()
		opts := RunOptions{
			Scale: Quick, Seed: 7, Parallelism: par, Shards: shards,
			Telemetry: &telemetry.Options{TracePath: filepath.Join(dir, "trace.json")},
			Obs:       NewObservatory(ObsOptions{SpanEvery: 2, SpanSeed: 7, Watchdogs: true, FlightDir: "-"}),
		}
		if _, err := e.Run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	base := run(1, 1)
	for _, c := range []struct{ par, shards int }{{8, 1}, {1, 3}, {8, 3}} {
		if got := run(c.par, c.shards); !bytes.Equal(base, got) {
			t.Errorf("span trace differs from -j1 -shards1 at -j%d -shards%d", c.par, c.shards)
		}
	}
	if err := telemetry.ValidateTrace(bytes.NewReader(base)); err != nil {
		t.Errorf("span trace fails schema validation: %v", err)
	}
	if err := obs.ValidateSpans(bytes.NewReader(base)); err != nil {
		t.Errorf("span trace fails span-chain validation: %v", err)
	}
	// The trace must actually contain spans — an empty sampled set would
	// make the identity check vacuous.
	if !bytes.Contains(base, []byte(`"cat":"span"`)) {
		t.Error("trace contains no packet spans (sampling produced an empty set)")
	}
}

func TestEvictionByteIdenticalAcrossShards(t *testing.T) {
	// At the default RingCap a quick-scale trial rarely overflows, so the
	// tests above never see the recorder evict. With 512 slots and a span
	// per packet hop nearly everything is evicted, in an arrival order
	// that three shard goroutines interleave differently on every run;
	// what survives must still be the same top 512 of the multiset.
	e, ok := Find("fig08-10")
	if !ok {
		t.Fatal("fig08-10 not in registry")
	}
	run := func(shards int) (trace, metrics []byte) {
		t.Helper()
		dir := t.TempDir()
		opts := RunOptions{
			Scale: Quick, Seed: 7, Shards: shards,
			Telemetry: &telemetry.Options{
				TracePath:   filepath.Join(dir, "trace.json"),
				MetricsPath: filepath.Join(dir, "metrics.json"),
				RingCap:     512,
			},
			Obs: NewObservatory(ObsOptions{SpanEvery: 1, SpanSeed: 7}),
		}
		if _, err := e.Run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		read := func(name string) []byte {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		return read("trace.json"), read("metrics.json")
	}
	trace1, metrics1 := run(1)
	trace3, metrics3 := run(3)
	if !bytes.Equal(trace1, trace3) {
		t.Error("trace differs between -shards 1 and -shards 3 when the recorder evicts")
	}
	if !bytes.Equal(metrics1, metrics3) {
		t.Error("metrics differ between -shards 1 and -shards 3 when the recorder evicts")
	}
	var mf struct {
		Trials []struct {
			Events  int   `json:"trace_events"`
			Dropped int64 `json:"trace_dropped"`
		} `json:"trials"`
	}
	if err := json.Unmarshal(metrics1, &mf); err != nil {
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
