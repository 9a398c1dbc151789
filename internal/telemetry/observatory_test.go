package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tfcsim/internal/core"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/workload"
)

// TestTokenWatchdogFlagsImpossibleSlot injects a slot record no correct
// TFC port can emit — a token value below zero — into the network's probe
// mid-run, among a live TFC flow's real slots, and checks the watchdog
// catches it: a violation is counted and a flight-recorder dump lands on
// disk.
func TestTokenWatchdogFlagsImpossibleSlot(t *testing.T) {
	dir := t.TempDir()
	o := NewObservatory(ObsOptions{Watchdogs: true, FlightDir: dir})
	c := NewCollector(Options{})
	o.Attach("skew", c)

	s, n, a, b, sw := dumbbell()
	tr := c.Trial("t0")
	tr.Bind(s)
	core.Attach(sw, core.SwitchConfig{})
	InstrumentNetwork(tr, n)
	InstrumentTransport(tr, "tfc", nil)

	d := &workload.Dialer{Sim: s, Proto: workload.TFC}
	conn := d.Dial(a, b, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(1 << 20)
	s.RunUntil(50 * sim.Millisecond)
	if o.Violations() != 0 {
		t.Fatalf("token watchdog fired %d times on a correct TFC run", o.Violations())
	}
	port := sw.PortTo(b.ID())
	s.At(60*sim.Millisecond, func() {
		n.Probe.Observe(netsim.Event{Kind: netsim.EvSlot, At: s.Now(), Port: port,
			A: int64(20 * sim.Microsecond), B: 1, X: -1e6, Y: -1e6, Z: 1})
	})
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
		a, b := sampledFlow(f, every, seed), sampledFlow(f, every, seed)
		if a != b {
			t.Fatalf("sampledFlow(%d) not stable", f)
		}
		if a {
			n++
		}
		if a != sampledFlow(f, every, seed+1) {
			diff++
		}
	}
	if n < 100 || n > 400 {
		t.Errorf("sampled %d of 1000 flows at 1-in-4, want roughly 250", n)
	}
	if diff == 0 {
		t.Error("sampling ignores the seed")
	}
	if sampledFlow(5, 0, seed) {
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

// TestValidateSpans checks ValidateTrace's packet-span chain checks.
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
	if err := ValidateTrace(strings.NewReader(valid)); err != nil {
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
		err := ValidateTrace(strings.NewReader(tc.trace))
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
	o := NewObservatory(ObsOptions{Watchdogs: true, FlightDir: dir})
	c := NewCollector(Options{})
	o.Attach("blackout", c)
	s, n, _, b, sw := dumbbell()
	tr := c.Trial("t0")
	tr.Bind(s)
	InstrumentNetwork(tr, n)

	out := sw.PortTo(b.ID())
	s.At(sim.Millisecond, out.SetDown)
	s.At(2*sim.Millisecond, out.SetUp)
	s.RunUntil(5 * sim.Millisecond)
	if got := forcedDumpKind(t, o, dir, "link", "sw->b#"); !slices.Equal(got, []int64{1, 0}) {
		t.Fatalf("link transitions in the flight dump = %v, want [1 0] (down, then up)", got)
	}
}

// TestFlightRecordsLossWindow opens a wire-loss window mid-run under the
// watchdogs and forces a dump: the flight recorder must hold the loss
// model going in and then out, in that order.
func TestFlightRecordsLossWindow(t *testing.T) {
	dir := t.TempDir()
	o := NewObservatory(ObsOptions{Watchdogs: true, FlightDir: dir})
	c := NewCollector(Options{})
	o.Attach("lossy", c)
	s, n, _, b, sw := dumbbell()
	tr := c.Trial("t0")
	tr.Bind(s)
	InstrumentNetwork(tr, n)

	out := sw.PortTo(b.ID())
	s.At(sim.Millisecond, func() { out.SetLoss(netsim.NewGilbertElliott(0.2, 2)) })
	s.At(2*sim.Millisecond, func() { out.SetLoss(nil) })
	s.RunUntil(5 * sim.Millisecond)
	if got := forcedDumpKind(t, o, dir, "loss", "sw->b#"); !slices.Equal(got, []int64{1, 0}) {
		t.Fatalf("loss transitions in the flight dump = %v, want [1 0] (installed, then removed)", got)
	}
}

// forcedDumpKind forces a flight dump of o's first trial into dir and
// returns the A field of its recent events of the given kind, in order;
// each must be on a port labelled with portPrefix.
func forcedDumpKind(t *testing.T, o *Observatory, dir, kind, portPrefix string) []int64 {
	t.Helper()
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
	var got []int64
	for _, ev := range dump.Recent {
		if ev.Kind == kind {
			if !strings.HasPrefix(ev.Port, portPrefix) {
				t.Errorf("%s event on port %q, want %s", kind, ev.Port, portPrefix)
			}
			got = append(got, ev.A)
		}
	}
	return got
}

// TestFinishRunReleasesTrials checks the observatory stops referencing a
// run's trials — and through them the simulator, network and flight ring —
// once the run is finished: a value only the trial references must become
// collectable.
func TestFinishRunReleasesTrials(t *testing.T) {
	o := NewObservatory(ObsOptions{Watchdogs: true, FlightDir: "-"})
	collected := make(chan struct{})
	func() {
		c := NewCollector(Options{RingCap: 1})
		o.Attach("run", c)
		s, n, _, _, _ := dumbbell()
		tr := c.Trial("t0")
		tr.Bind(s)
		InstrumentNetwork(tr, n)
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
	o := NewObservatory(ObsOptions{HTTPAddr: "127.0.0.1:0", Watchdogs: true, FlightDir: "-"})
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	c := NewCollector(Options{})
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
	InstrumentNetwork(tr, n)
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

// TestSnapshotCountsActiveFlows: the endpoint's active_flows is the
// trial's open flow count — both flows while both send, one once the
// short one has sent its FIN, none once both have.
func TestSnapshotCountsActiveFlows(t *testing.T) {
	o := NewObservatory(ObsOptions{HTTPAddr: "127.0.0.1:0"})
	c := NewCollector(Options{})
	o.Attach("flows", c)
	tr := c.Trial("t0")
	s, n, a, b, _ := dumbbell()
	tr.Bind(s)
	InstrumentNetwork(tr, n)
	d := &workload.Dialer{Sim: s, Proto: workload.TCP}
	for _, size := range []int64{512 << 10, 4 << 20} {
		conn := d.Dial(a, b, nil, nil)
		s.At(0, func() {
			conn.Sender.Open()
			conn.Sender.Send(size)
			conn.Sender.Close()
		})
	}
	active := func() int {
		raw, err := json.Marshal(o.snapshotTrials()[0].summary())
		if err != nil {
			t.Fatal(err)
		}
		var row struct {
			ActiveFlows *int `json:"active_flows"`
		}
		if err := json.Unmarshal(raw, &row); err != nil || row.ActiveFlows == nil {
			t.Fatalf("trial row %s has no active_flows (err=%v)", raw, err)
		}
		return *row.ActiveFlows
	}
	for _, step := range []struct {
		until sim.Time
		want  int
	}{{2 * sim.Millisecond, 2}, {20 * sim.Millisecond, 1}, {100 * sim.Millisecond, 0}} {
		s.RunUntil(step.until)
		if got := active(); got != step.want {
			t.Errorf("active_flows at %v = %d, want %d", step.until, got, step.want)
		}
	}
}
