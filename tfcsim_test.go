package tfcsim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tfcsim/internal/telemetry"
)

func TestFacadeQuickstart(t *testing.T) {
	// The README/package-doc example must actually work.
	s := NewSimulator(1)
	net := NewNetwork(s)
	a, b := net.NewHost("a"), net.NewHost("b")
	sw := net.NewSwitch("sw")
	net.Connect(a, sw, LinkConfig{Rate: Gbps, Delay: 5 * Microsecond})
	net.Connect(sw, b, LinkConfig{Rate: Gbps, Delay: 5 * Microsecond, BufA: 256 << 10})
	net.ComputeRoutes()
	AttachTFC(sw, TFCConfig{})
	d := &Dialer{Sim: s, Proto: TFC}
	conn := d.Dial(a, b, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(1 << 20)
	s.RunUntil(100 * Millisecond)
	if conn.Received() != 1<<20 {
		t.Fatalf("received %d, want 1MB", conn.Received())
	}
}

func TestFacadeAllProtocols(t *testing.T) {
	// Every registered transport — including out-of-tree ones — must
	// complete a transfer through the one generic construction path:
	// AttachTransport for the switch side, Dialer for the hosts.
	for _, name := range Protocols() {
		s := NewSimulator(2)
		net := NewNetwork(s)
		a, b := net.NewHost("a"), net.NewHost("b")
		sw := net.NewSwitch("sw")
		net.Connect(a, sw, LinkConfig{Rate: Gbps, Delay: 5 * Microsecond})
		net.Connect(sw, b, LinkConfig{Rate: Gbps, Delay: 5 * Microsecond, BufA: 256 << 10})
		net.ComputeRoutes()
		if err := AttachTransport(name, []*Switch{sw}, Gbps); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := &Dialer{Sim: s, Proto: Proto(name)}
		conn := d.Dial(a, b, nil, nil)
		conn.Sender.Open()
		conn.Sender.Send(100 * MSS)
		conn.Sender.Close()
		s.RunUntil(Second)
		if conn.Received() != 100*MSS {
			t.Fatalf("%s: received %d", name, conn.Received())
		}
	}
}

func TestDCTCPThreshold(t *testing.T) {
	if DCTCPThreshold(Gbps) != 32<<10 {
		t.Fatalf("K@1G = %d", DCTCPThreshold(Gbps))
	}
	if DCTCPThreshold(10*Gbps) <= 32<<10 {
		t.Fatal("K@10G should exceed K@1G")
	}
}

func TestExperimentRegistry(t *testing.T) {
	es := Experiments()
	if len(es) < 11 {
		t.Fatalf("registry has %d experiments, want >= 11 (9 figures + 2 ablations)", len(es))
	}
	seen := map[string]bool{}
	for _, e := range es {
		if e.Name == "" || e.Desc == "" || e.Figure == "" || e.run == nil {
			t.Fatalf("incomplete registry entry: %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig06", "fig07", "fig08-10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "ablation-delay", "ablation-decouple",
		"fattree", "churn", "credit-baseline"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

// runQuick runs a registry experiment with default options at quick scale
// and returns its rendered text.
func runQuick(t *testing.T, name string) string {
	t.Helper()
	e, ok := Find(name)
	if !ok {
		t.Fatalf("%s not in registry", name)
	}
	r, err := e.Run(context.Background(), RunOptions{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	return r.Text
}

func TestRunExperimentErrors(t *testing.T) {
	if _, ok := Find("nope"); ok {
		t.Fatal("unknown experiment should not be found")
	}
	e, _ := Find("fig06")
	if _, err := e.Run(context.Background(), RunOptions{Scale: Scale("huge")}); err == nil {
		t.Fatal("unknown scale should error")
	}
}

func TestRunExperimentQuick(t *testing.T) {
	// Run the two fastest registry entries end to end.
	if out := runQuick(t, "fig14"); !strings.Contains(out, "rho0") || !strings.Contains(out, "0.90") {
		t.Fatalf("fig14 output unexpected:\n%s", out)
	}
	if out := runQuick(t, "fig06"); !strings.Contains(out, "measured rtt_b") {
		t.Fatalf("fig06 output unexpected:\n%s", out)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// Identical seeds must produce identical experiment output.
	if runQuick(t, "fig06") != runQuick(t, "fig06") {
		t.Fatal("experiment output not deterministic")
	}
}

func TestRunOptionsValidation(t *testing.T) {
	e, ok := Find("fig06")
	if !ok {
		t.Fatal("fig06 not in registry")
	}
	if _, err := e.Run(context.Background(), RunOptions{Scale: Scale("huge")}); err == nil {
		t.Fatal("unknown scale should error")
	}
	if _, err := e.Run(context.Background(), RunOptions{Shards: -2}); err == nil {
		t.Fatal("Shards below -1 (auto) should error")
	}
	// Zero-value options resolve to quick / seed 1 / GOMAXPROCS.
	res, err := e.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale != Quick || res.Seed != 1 {
		t.Fatalf("defaults: scale=%s seed=%d, want quick/1", res.Scale, res.Seed)
	}
	if res.Name != "fig06" || res.Figure == "" || res.Text == "" || res.Data == nil {
		t.Fatalf("result incomplete: %+v", res)
	}
	if len(res.Trials) == 0 || res.Events == 0 || res.Wall <= 0 {
		t.Fatalf("metrics missing: trials=%d events=%d wall=%v",
			len(res.Trials), res.Events, res.Wall)
	}
}

func TestParallelismEquivalence(t *testing.T) {
	// The acceptance bar for the runner: a sweep's output is byte-identical
	// whether its trials run serially or fanned across 8 workers, because
	// seeds and result slots depend only on the trial index.
	e, ok := Find("fig12")
	if !ok {
		t.Fatal("fig12 not in registry")
	}
	r1, err := e.Run(context.Background(), RunOptions{Scale: Quick, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := e.Run(context.Background(), RunOptions{Scale: Quick, Seed: 7, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r8.Text {
		t.Fatalf("fig12 output differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
			r1.Text, r8.Text)
	}
	if r1.Events != r8.Events {
		t.Fatalf("event totals differ: j=1 %d vs j=8 %d", r1.Events, r8.Events)
	}
	// Trial metrics are ordered by index with index-derived seeds.
	for i, m := range r8.Trials {
		if m.Index != i {
			t.Fatalf("trial %d has index %d; metrics not sorted", i, m.Index)
		}
	}
}

func TestCSVExportByteIdentical(t *testing.T) {
	// CSV export is part of the deterministic output surface: the same
	// (experiment, scale, seed) must yield byte-identical CSV files
	// regardless of parallelism. This is the regression test behind the
	// mapiter analyzer — an unsorted map iteration feeding a CSV writer
	// shows up here as flapping bytes.
	// fig06 exports series, fig13 one CDF per protocol (SaveBenchmarkCSV).
	for _, name := range []string{"fig06", "fig13"} {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("%s not in registry", name)
		}
		dirA, dirB := t.TempDir(), t.TempDir()
		if _, err := e.Run(context.Background(), RunOptions{Scale: Quick, Seed: 7, Parallelism: 1, CSVDir: dirA}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background(), RunOptions{Scale: Quick, Seed: 7, Parallelism: 8, CSVDir: dirB}); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dirA)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s exported no CSV files", name)
		}
		for _, ent := range entries {
			a, err := os.ReadFile(filepath.Join(dirA, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dirB, ent.Name()))
			if err != nil {
				t.Fatalf("second run missing %s: %v", ent.Name(), err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s differs between identical-seed runs (parallelism 1 vs 8)", ent.Name())
			}
		}
	}
	// A directory that cannot be created fails the run after its trials
	// finished; the error is not dropped.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Scale: Quick, Seed: 7, Protos: []Proto{TFC}, CSVDir: filepath.Join(file, "sub")}
	for _, name := range []string{"fig06", "fig08-10", "fig13"} {
		e, _ := Find(name)
		if _, err := e.Run(context.Background(), opts); err == nil {
			t.Errorf("%s: CSVDir under a regular file: no error", name)
		}
	}
}

func TestTelemetryExportByteIdentical(t *testing.T) {
	// The telemetry trace and metrics files are part of the deterministic
	// output surface: trials are merged in key order, so the same
	// (experiment, scale, seed) must yield byte-identical files at any
	// parallelism. fig12 is the multi-trial grid sweep, the case where
	// trial completion order actually varies with -j.
	e, ok := Find("fig12")
	if !ok {
		t.Fatal("fig12 not in registry")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	run := func(dir string, par int) {
		t.Helper()
		opts := RunOptions{Scale: Quick, Seed: 7, Parallelism: par, Telemetry: &telemetry.Options{
			TracePath:   filepath.Join(dir, "trace.json"),
			MetricsPath: filepath.Join(dir, "metrics.json"),
		}}
		if _, err := e.Run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	}
	run(dirA, 1)
	run(dirB, 8)
	for _, name := range []string{"trace.json", "metrics.json"} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between identical-seed runs (parallelism 1 vs 8)", name)
		}
	}
	f, err := os.Open(filepath.Join(dirA, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.ValidateTrace(f); err != nil {
		t.Errorf("exported trace fails schema validation: %v", err)
	}
}

func TestTelemetryResultsNeutral(t *testing.T) {
	// Attaching telemetry must not perturb any experiment result: probes
	// are read-only observers and never touch the simulation's Rand.
	e, ok := Find("fig08-10")
	if !ok {
		t.Fatal("fig08-10 not in registry")
	}
	plain, err := e.Run(context.Background(), RunOptions{Scale: Quick, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	traced, err := e.Run(context.Background(), RunOptions{Scale: Quick, Seed: 7, Telemetry: &telemetry.Options{
		TracePath: filepath.Join(dir, "trace.json"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Text is the full results table; Events is excluded because the gauge
	// sampling cadence adds (result-neutral) timer events of its own.
	if plain.Text != traced.Text {
		t.Error("experiment output changed when telemetry was attached")
	}
}

func TestExperimentRunCancelled(t *testing.T) {
	e, ok := Find("fig12")
	if !ok {
		t.Fatal("fig12 not in registry")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	rs, err := RunAll(context.Background(), RunOptions{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(Experiments()) {
		t.Fatalf("RunAll returned %d results, want %d", len(rs), len(Experiments()))
	}
	for i, r := range rs {
		if r.Name != Experiments()[i].Name {
			t.Fatalf("result %d is %q, want registry order (%q)", i, r.Name, Experiments()[i].Name)
		}
		if r.Text == "" || r.Events == 0 {
			t.Fatalf("%s: empty result (%d events)", r.Name, r.Events)
		}
	}
}

func TestVerifyAllClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims run full quick-scale experiments")
	}
	report, ok := VerifyAll()
	if !ok {
		t.Fatalf("claims failed:\n%s", report)
	}
}

func TestProtosOverrideUnknownName(t *testing.T) {
	// A typo'd -proto must fail up front with the registry's sorted name
	// list, not start running trials.
	e, ok := Find("fig08-10")
	if !ok {
		t.Fatal("fig08-10 not in registry")
	}
	_, err := e.Run(context.Background(), RunOptions{Protos: []Proto{"newreno"}})
	if err == nil {
		t.Fatal("unknown protocol name should error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"newreno"`) {
		t.Errorf("error %q does not quote the unknown name", msg)
	}
	for _, name := range Protocols() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered protocol %q", msg, name)
		}
	}
}

func TestNewProtocolParallelismEquivalence(t *testing.T) {
	// The registry satellite of the byte-identity contract: the two new
	// baselines, selected via the Protos override, must produce identical
	// text and CSV output at -j1 and -j8 on both a CSV-exporting figure
	// sweep and the fault-schedule robustness experiment. (fig06 is pinned
	// to TFC; its byte identity is covered by TestCSVExportByteIdentical.)
	for _, proto := range []Proto{BFC, TINYTCP} {
		for _, name := range []string{"fig08-10", "robustness"} {
			e, ok := Find(name)
			if !ok {
				t.Fatalf("%s not in registry", name)
			}
			dirA, dirB := t.TempDir(), t.TempDir()
			run := func(dir string, par int) *Result {
				t.Helper()
				res, err := e.Run(context.Background(), RunOptions{
					Scale: Quick, Seed: 7, Parallelism: par,
					Protos: []Proto{proto}, CSVDir: dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			r1 := run(dirA, 1)
			r8 := run(dirB, 8)
			if r1.Text != r8.Text {
				t.Errorf("%s/%s output differs between -j1 and -j8:\n--- j=1 ---\n%s--- j=8 ---\n%s",
					name, proto, r1.Text, r8.Text)
			}
			if r1.Events != r8.Events {
				t.Errorf("%s/%s event totals differ: %d vs %d", name, proto, r1.Events, r8.Events)
			}
			if !strings.Contains(r1.Text, string(proto)) {
				t.Errorf("%s output does not mention the selected protocol %q", name, proto)
			}
			entries, err := os.ReadDir(dirA)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				a, err := os.ReadFile(filepath.Join(dirA, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(filepath.Join(dirB, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s/%s: %s differs between -j1 and -j8", name, proto, ent.Name())
				}
			}
		}
	}
}
