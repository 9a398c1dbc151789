package tfcsim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"tfcsim/internal/obs"
	"tfcsim/internal/telemetry"
)

func TestObservatoryResultsNeutral(t *testing.T) {
	// Attaching the observatory the way scripts/identity.sh's observed run
	// does — packet spans, watchdogs and flight ring armed, trace and
	// metrics exported, two workers — must not perturb any experiment
	// result: every obs computation is a pure read off the probe stream. A
	// probe that schedules an event changes no table, only the event
	// counts, so those are compared too.
	e, ok := Find("fig08-10")
	if !ok {
		t.Fatal("fig08-10 not in registry")
	}
	run := func(o *Observatory) *Result {
		t.Helper()
		dir := t.TempDir()
		res, err := e.Run(context.Background(), RunOptions{
			Scale: Quick, Seed: 7, Parallelism: 2,
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
	for _, opts := range []ObsOptions{
		{SpanEvery: 2, SpanSeed: 7, Watchdogs: true, FlightDir: "-"},
		// The live endpoint snapshots on the trial's own sampling tick.
		{HTTPAddr: "127.0.0.1:0", Watchdogs: true, FlightDir: "-"},
	} {
		o := NewObservatory(opts)
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		observed := run(o)
		o.Stop()
		if plain.Text != observed.Text {
			t.Errorf("%+v: experiment output changed when the observatory was attached", opts)
		}
		if plain.Events != observed.Events {
			t.Errorf("%+v: observatory changed the event count: %d -> %d", opts, plain.Events, observed.Events)
		}
		if len(plain.Trials) != len(observed.Trials) {
			t.Fatalf("%+v: observatory changed the trial count: %d -> %d", opts, len(plain.Trials), len(observed.Trials))
		}
		for i, m := range plain.Trials {
			if got := observed.Trials[i]; got.Index != m.Index || got.Events != m.Events {
				t.Errorf("%+v: trial %d: %d events -> trial %d: %d events", opts, m.Index, m.Events, got.Index, got.Events)
			}
		}
		if o.Violations() != 0 {
			t.Errorf("%+v: healthy run tripped %d watchdog violation(s)", opts, o.Violations())
		}
	}
}

func TestPacketSpanByteIdentical(t *testing.T) {
	// Causal packet spans are sampled by a pure function of (flow, seed)
	// and recorded on the virtual timeline, so the exported trace must be
	// byte-identical at any worker parallelism.
	e, ok := Find("fig08-10")
	if !ok {
		t.Fatal("fig08-10 not in registry")
	}
	run := func(par int) []byte {
		t.Helper()
		dir := t.TempDir()
		opts := RunOptions{
			Scale: Quick, Seed: 7, Parallelism: par,
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
	base := run(1)
	if !bytes.Equal(base, run(8)) {
		t.Error("span trace differs between -j1 and -j8")
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
