package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tfcsim/internal/core"
	"tfcsim/internal/exp"
	"tfcsim/internal/faults"
	"tfcsim/internal/netsim"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
	"tfcsim/internal/workload"
)

// TestTokenSkewWatchdog injects a deliberate token-conservation bug
// through core.SwitchConfig.TestTokenSkew (test-only: leaks tokens out
// of the pool after every slot) and checks the watchdog catches it: a
// violation is counted and a flight-recorder dump lands on disk.
func TestTokenSkewWatchdog(t *testing.T) {
	dir := t.TempDir()
	o := New(Options{Watchdogs: true, FlightDir: dir})
	c := telemetry.NewCollector(telemetry.Options{})
	o.Attach("skew", c)

	s, n, a, b, sw := dumbbell()
	tr := c.Trial("t0")
	tr.Bind(s)
	core.Attach(sw, core.SwitchConfig{TestTokenSkew: -1e6})
	telemetry.InstrumentNetwork(tr, n)
	telemetry.InstrumentTransport(tr, "tfc", nil)

	d := &workload.Dialer{Sim: s, Proto: workload.TFC}
	conn := d.Dial(a, b, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(1 << 20)
	s.RunUntil(100 * sim.Millisecond)

	if o.Violations() == 0 {
		t.Fatal("token watchdog did not fire on a deliberately skewed token pool")
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*-token-conservation.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no token-conservation flight dump written (err=%v)", err)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Schema   string `json:"schema"`
		Trial    string `json:"trial"`
		Watchdog string `json:"watchdog"`
		Detail   string `json:"detail"`
		Recent   []any  `json:"recent"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if dump.Schema != "tfcsim-flight-v1" || dump.Watchdog != "token-conservation" || dump.Trial != "t0" {
		t.Errorf("dump header = (%q, %q, %q), want (tfcsim-flight-v1, token-conservation, t0)",
			dump.Schema, dump.Watchdog, dump.Trial)
	}
	if !strings.Contains(dump.Detail, "token pool drained") {
		t.Errorf("dump detail %q does not name the drained token pool", dump.Detail)
	}
	if len(dump.Recent) == 0 {
		t.Error("flight dump carries no recent events")
	}
}

// TestSampledFlowDeterministic checks span sampling is a pure function
// of (flow, every, seed): stable across calls, seed-sensitive, and
// roughly 1-in-every dense.
func TestSampledFlowDeterministic(t *testing.T) {
	const every, seed = 4, 7
	n, diff := 0, 0
	for f := netsim.FlowID(0); f < 1000; f++ {
		a, b := SampledFlow(f, every, seed), SampledFlow(f, every, seed)
		if a != b {
			t.Fatalf("SampledFlow(%d) not stable", f)
		}
		if a {
			n++
		}
		if a != SampledFlow(f, every, seed+1) {
			diff++
		}
	}
	if n < 100 || n > 400 {
		t.Errorf("sampled %d of 1000 flows at 1-in-4, want roughly 250", n)
	}
	if diff == 0 {
		t.Error("sampling ignores the seed")
	}
	if SampledFlow(5, 0, seed) {
		t.Error("every=0 must disable sampling")
	}
}

// TestFlightRingWrap checks the recorder ring drops oldest-first and the
// dump reports the drop count.
func TestFlightRingWrap(t *testing.T) {
	r := newFlightRing(4)
	for i := 0; i < 10; i++ {
		r.Observe(netsim.Event{Kind: netsim.EvRTO, At: sim.Time(i), Flow: netsim.FlowID(i)})
	}
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := r.dump(path, "run", "trial", "wd", "detail", nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Dropped uint64 `json:"events_dropped"`
		Recent  []struct {
			At   int64 `json:"t_ns"`
			Flow int64 `json:"flow"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Recent) != 4 || d.Dropped != 6 {
		t.Fatalf("dump has %d recent / %d dropped, want 4 / 6", len(d.Recent), d.Dropped)
	}
	for i, ev := range d.Recent {
		if ev.Flow != int64(6+i) {
			t.Fatalf("recent[%d].flow = %d, want oldest-first %d", i, ev.Flow, 6+i)
		}
	}
}

// spanTrace builds a minimal trace file around the given span events.
func spanTrace(events ...string) string {
	return `{"traceEvents":[` + strings.Join(events, ",") + `]}`
}

func spanEv(name string, ts float64, pid, tid int, seq, hop int64) string {
	b, _ := json.Marshal(map[string]any{
		"name": name, "cat": SpanCat, "ph": "X", "ts": ts, "dur": 1.0,
		"pid": pid, "tid": tid,
		"args": map[string]float64{"seq": float64(seq), "hop": float64(hop), "parent": float64(hop - 1)},
	})
	return string(b)
}

func TestValidateSpans(t *testing.T) {
	valid := spanTrace(
		spanEv("queue", 0, 0, 1, 0, 0),
		spanEv("xmit", 1, 0, 1, 0, 1),
		spanEv("wire", 2, 0, 1, 0, 2),
		spanEv("deliver", 3, 0, 1, 0, 3),
		// Second run of the same seq (retransmit after delivery): restarts
		// at hop 0 and closes with its own terminal.
		spanEv("queue", 10, 0, 1, 0, 0),
		spanEv("drop", 11, 0, 1, 0, 1),
		// Front-truncated first run of another chain (ring eviction).
		spanEv("wire", 5, 0, 2, 7, 4),
		spanEv("open", 6, 0, 2, 7, 5),
	)
	if err := ValidateSpans(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid spans rejected: %v", err)
	}

	cases := []struct {
		name, trace, want string
	}{
		{"unknown hop name",
			spanTrace(spanEv("teleport", 0, 0, 1, 0, 0)), "unknown hop name"},
		{"broken parent linkage",
			spanTrace(`{"name":"queue","cat":"span","ph":"X","ts":0,"pid":0,"tid":1,"args":{"seq":0,"hop":1,"parent":3}}`),
			"broken parent linkage"},
		{"gap between hops",
			spanTrace(spanEv("queue", 0, 0, 1, 0, 0), spanEv("deliver", 5, 0, 1, 0, 1)),
			"not contiguous"},
		{"run without terminal",
			spanTrace(spanEv("queue", 0, 0, 1, 0, 0), spanEv("xmit", 1, 0, 1, 0, 1)),
			"incomplete run"},
		{"restart not at hop 0",
			spanTrace(
				spanEv("queue", 0, 0, 1, 0, 0), spanEv("deliver", 1, 0, 1, 0, 1),
				spanEv("wire", 2, 0, 1, 0, 3), spanEv("open", 3, 0, 1, 0, 4)),
			"restarted run begins at hop 3"},
		{"terminal mid-run",
			spanTrace(
				spanEv("queue", 0, 0, 1, 0, 0), spanEv("deliver", 1, 0, 1, 0, 1),
				spanEv("open", 2, 0, 1, 0, 2)),
			"incomplete run"},
	}
	for _, tc := range cases {
		err := ValidateSpans(strings.NewReader(tc.trace))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// dumbbell builds a - sw - b at 1 Gbps on a fresh simulator.
func dumbbell() (*sim.Simulator, *netsim.Network, *netsim.Host, *netsim.Host, *netsim.Switch) {
	s := sim.New(1)
	n := netsim.NewNetwork(s)
	a, b := n.NewHost("a"), n.NewHost("b")
	sw := n.NewSwitch("sw")
	n.Connect(a, sw, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond})
	n.Connect(sw, b, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: 256 << 10})
	n.ComputeRoutes()
	return s, n, a, b, sw
}

// TestFlightRecordsLinkDown blacks a port out under the watchdogs and
// forces a dump: the flight recorder must hold the link going down and
// then coming back up, in that order.
func TestFlightRecordsLinkDown(t *testing.T) {
	dir := t.TempDir()
	o := New(Options{Watchdogs: true, FlightDir: dir})
	c := telemetry.NewCollector(telemetry.Options{})
	o.Attach("blackout", c)
	s, n, _, b, sw := dumbbell()
	tr := c.Trial("t0")
	tr.Bind(s)
	telemetry.InstrumentNetwork(tr, n)

	faults.NewScheduler(s).LinkDown(sim.Millisecond, sim.Millisecond, false, sw.PortTo(b.ID()))
	s.RunUntil(5 * sim.Millisecond)
	o.violation(o.trials[0], "forced", "test dump")

	dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*-forced.json"))
	if len(dumps) != 1 {
		t.Fatalf("forced violation wrote %d dumps, want 1", len(dumps))
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recent []struct {
			At   int64  `json:"t_ns"`
			Kind string `json:"kind"`
			Port string `json:"port"`
			A    int64  `json:"a"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	var links []int64
	for _, ev := range dump.Recent {
		if ev.Kind == "link" {
			if !strings.HasPrefix(ev.Port, "sw->b#") {
				t.Errorf("link event on port %q, want sw->b", ev.Port)
			}
			links = append(links, ev.A)
		}
	}
	if len(links) != 2 || links[0] != 1 || links[1] != 0 {
		t.Fatalf("link transitions in the flight dump = %v, want [1 0] (down, then up)", links)
	}
}

// TestFinishRunReleasesTrials checks the observatory stops referencing a
// run's trials — and through them the simulator, network and flight ring —
// once the run is finished: a value only the trial references must become
// collectable.
func TestFinishRunReleasesTrials(t *testing.T) {
	o := New(Options{Watchdogs: true, FlightDir: "-"})
	collected := make(chan struct{})
	func() {
		c := telemetry.NewCollector(telemetry.Options{RingCap: 1})
		o.Attach("run", c)
		s, n, _, _, _ := dumbbell()
		tr := c.Trial("t0")
		tr.Bind(s)
		telemetry.InstrumentNetwork(tr, n)
		canary := new([64]byte)
		runtime.SetFinalizer(canary, func(*[64]byte) { close(collected) })
		tr.Gauge("canary", func() float64 { return float64(canary[0]) })
		s.RunUntil(sim.Millisecond)
		o.FinishRun("run")
	}()
	released := false
	for i := 0; i < 10 && !released; i++ {
		runtime.GC()
		select {
		case <-collected:
			released = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(o)
	if !released {
		t.Fatal("a finished run's trial is still reachable from the Observatory")
	}
}

// TestSnapshotWhileTrialBinds serves snapshots in a loop while a trial is
// minted, binds and runs: the endpoint reads the trial from the moment it
// is published, so everything it reads must exist by then (run under
// -race).
func TestSnapshotWhileTrialBinds(t *testing.T) {
	o := New(Options{HTTPAddr: "127.0.0.1:0", Watchdogs: true, FlightDir: "-"})
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	c := telemetry.NewCollector(telemetry.Options{})
	o.Attach("race", c)

	stop, seen, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for published := false; ; {
			select {
			case <-stop:
				return
			default:
			}
			if len(o.srv.snapshot().Trials) > 0 && !published {
				published = true
				close(seen)
			}
		}
	}()
	tr := c.Trial("t0")
	<-seen
	s, n, a, b, _ := dumbbell()
	tr.Bind(s)
	telemetry.InstrumentNetwork(tr, n)
	conn := (&workload.Dialer{Sim: s, Proto: workload.TCP}).Dial(a, b, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(1 << 20)
	s.RunUntil(10 * sim.Millisecond)
	close(stop)
	<-done

	snap := o.srv.snapshot()
	if len(snap.Trials) != 1 || snap.Trials[0].Executed != s.Executed() {
		t.Errorf("snapshot = %+v, want one trial at %d executed events", snap.Trials, s.Executed())
	}
}

// TestTrialDoneWhenCellReturns: a trial counts as done as soon as its
// Sweep cell returns, not only at its run's export or FinishRun — the
// liveness watchdog would otherwise flag every trial that finishes long
// before its run's last one.
func TestTrialDoneWhenCellReturns(t *testing.T) {
	o := New(Options{Watchdogs: true, FlightDir: "-"})
	c := telemetry.NewCollector(telemetry.Options{})
	o.Attach("run", c)
	cells := exp.PerProto(exp.TopoConfig{}, []exp.Proto{exp.TCP, exp.TFC})
	_, err := exp.Sweep(context.Background(), &runner.Pool{Parallelism: 1, BaseSeed: 1}, c,
		cells, exp.ProtoKey, func(cfg exp.TopoConfig) uint64 {
			e := exp.Testbed(cfg)
			e.Sim.RunUntil(sim.Millisecond)
			return e.Sim.Executed()
		})
	if err != nil {
		t.Fatal(err)
	}
	trials := o.snapshotTrials()
	if len(trials) != len(cells) {
		t.Fatalf("observatory holds %d trials, want %d", len(trials), len(cells))
	}
	for _, to := range trials {
		if !to.done.Load() {
			t.Errorf("trial %s: its cell returned, but it is not done before FinishRun", to.key)
		}
	}
	o.FinishRun("run")
}
