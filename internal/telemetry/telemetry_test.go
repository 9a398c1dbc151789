package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

func TestNilTrialIsDisabled(t *testing.T) {
	var tr *Trial
	// Every surface must be a safe no-op on the nil (disabled) trial.
	tr.Bind(sim.New(1))
	tr.Counter("x").Add(5)
	tr.Counter("x").Inc()
	if v := tr.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value = %d, want 0", v)
	}
	tr.Gauge("g", func() float64 { return 1 })
	tr.Histogram("h").Observe(3)
	tr.Span("c", "n", "tr", 0, 10)
	tr.InstantAt(0, "c", "n", "tr")
	tr.CounterEventAt(0, "c", "n", "tr")
	tr.Flush()
	InstrumentNetwork(tr, nil)
	InstrumentTransport(tr, "tfc", nil)
	if p := tr.DialProbe("tcp"); p != nil {
		t.Fatalf("nil trial DialProbe = %v, want nil interface", p)
	}
}

func TestNilCollectorMintsNilTrials(t *testing.T) {
	var c *Collector
	if tr := c.Trial("k"); tr != nil {
		t.Fatal("nil collector should mint nil trials")
	}
	if err := c.WriteFiles(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorDuplicateKeyPanics(t *testing.T) {
	c := NewCollector(Options{})
	c.Trial("a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate trial key should panic")
		}
	}()
	c.Trial("a")
}

func TestBindTwicePanics(t *testing.T) {
	tr := NewCollector(Options{}).Trial("a")
	tr.Bind(sim.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("second Bind should panic")
		}
	}()
	tr.Bind(sim.New(2))
}

// Observation runs on the trial's own goroutine, so a trial refuses a
// partitioned network rather than taking records from shard goroutines.
func TestInstrumentPartitionedNetworkPanics(t *testing.T) {
	n := netsim.NewNetwork(sim.New(1))
	a, sw, b := n.NewHost("a"), n.NewSwitch("sw"), n.NewHost("b")
	link := netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond}
	n.Connect(a, sw, link)
	n.Connect(sw, b, link)
	n.ComputeRoutes()
	if err := n.Partition([]int{0, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "partitioned") {
			t.Errorf("InstrumentNetwork on a partitioned network: panic %q, want one naming it", msg)
		}
	}()
	InstrumentNetwork(NewCollector(Options{}).Trial("k"), n)
}

func TestGaugeSamplingCadence(t *testing.T) {
	tr := NewCollector(Options{}).Trial("a")
	s := sim.New(1)
	var calls int
	tr.Gauge("g", func() float64 { calls++; return float64(calls) })
	tr.Bind(s)
	s.RunUntil(10 * sim.Millisecond)
	// Samples at 1ms..10ms inclusive (the tick at exactly 10ms runs).
	if calls < 9 || calls > 11 {
		t.Fatalf("gauge sampled %d times over 10ms at 1ms cadence", calls)
	}
}

func TestRecorderKeepsCanonicalTail(t *testing.T) {
	var r recorder
	r.init(4)
	for i := 0; i < 7; i++ {
		r.push(&event{name: string(rune('a' + i)), ph: 'i', ts: sim.Time(i)})
	}
	if d := r.dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
	evs := r.events()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(evs))
	}
	// The canonically-largest 4 (the latest timestamps) survive, ascending.
	want := []string{"d", "e", "f", "g"}
	for i, e := range evs {
		if e.name != want[i] {
			t.Fatalf("event %d = %q, want %q", i, e.name, want[i])
		}
	}
}

func TestRecorderOrderInvariant(t *testing.T) {
	// The retained set must be a pure function of the pushed multiset,
	// regardless of arrival order, so the exported trace depends on what
	// the probes recorded, not on the order they pushed it in.
	mk := func(order []int) *recorder {
		var r recorder
		r.init(3)
		for _, i := range order {
			r.push(&event{name: string(rune('a' + i)), ph: 'i', ts: sim.Time(i), track: "t"})
		}
		return &r
	}
	a := mk([]int{0, 1, 2, 3, 4, 5})
	b := mk([]int{5, 3, 1, 4, 2, 0})
	ea, eb := a.events(), b.events()
	if len(ea) != len(eb) {
		t.Fatalf("retained %d vs %d events", len(ea), len(eb))
	}
	for i := range ea {
		if *ea[i] != *eb[i] {
			t.Fatalf("event %d differs across arrival orders: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if a.dropped() != b.dropped() {
		t.Fatalf("dropped %d vs %d", a.dropped(), b.dropped())
	}
}

func TestRecorderTracksSorted(t *testing.T) {
	var r recorder
	r.init(8)
	r.push(&event{name: "x", ph: 'i', track: "zeta"})
	r.push(&event{name: "y", ph: 'i', track: "alpha"})
	r.push(&event{name: "z", ph: 'i', track: "zeta"})
	got := r.tracks()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("tracks = %v, want [alpha zeta]", got)
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := NewCollector(Options{}).Trial("a")
	tr.Span("c", "n", "tr", 10, 5)
	evs := tr.rec.events()
	if len(evs) != 1 || evs[0].dur != 0 {
		t.Fatalf("span with end<start should clamp dur to 0, got %+v", evs)
	}
}

func TestDuplicateGaugePanics(t *testing.T) {
	tr := NewCollector(Options{}).Trial("a")
	tr.Gauge("g", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate gauge should panic")
		}
	}()
	tr.Gauge("g", func() float64 { return 0 })
}

func TestCounterAndHistogramIdempotentByName(t *testing.T) {
	tr := NewCollector(Options{}).Trial("a")
	c1 := tr.Counter("c")
	c1.Add(2)
	tr.Counter("c").Add(3)
	if v := c1.Value(); v != 5 {
		t.Fatalf("counter = %d, want 5 (same instance by name)", v)
	}
	h1 := tr.Histogram("h", 1, 2, 4)
	h1.Observe(1.5)
	tr.Histogram("h").Observe(3)
	if n := h1.h.Count(); n != 2 {
		t.Fatalf("histogram count = %d, want 2 (same instance by name)", n)
	}
}

// faultPort instruments a two-node network (sw -- h) on tr and returns
// the port sw->h, the target of the fault records the tests feed.
func faultPort(tr *Trial) *netsim.Port {
	n := netsim.NewNetwork(sim.New(1))
	sw, h := n.NewSwitch("sw"), n.NewHost("h")
	n.Connect(sw, h, netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond})
	n.ComputeRoutes()
	InstrumentNetwork(tr, n)
	return sw.PortTo(h.ID())
}

// TestFaultTransitionsPairWindows feeds a link-down/link-up pair through
// Observe: it becomes one span on the faults track, named by the port's
// unique label and covering the blackout, and each transition counts
// once.
func TestFaultTransitionsPairWindows(t *testing.T) {
	tr := NewCollector(Options{}).Trial("a")
	tr.Bind(sim.New(1))
	p := faultPort(tr)
	tr.Observe(netsim.Event{Kind: netsim.EvLink, At: 10, Port: p, A: 1})
	tr.Observe(netsim.Event{Kind: netsim.EvLink, At: 40, Port: p})
	tr.Flush()
	var spans []event
	for _, e := range tr.rec.events() {
		if e.ph == 'X' {
			spans = append(spans, *e)
		}
	}
	want := "link-down " + tr.portLabel(p)
	if len(spans) != 1 {
		t.Fatalf("%d spans for one blackout, want 1: %+v", len(spans), spans)
	}
	if s := spans[0]; s.ts != 10 || s.dur != 30 || s.cat != "fault" || s.name != want || s.track != "faults" {
		t.Fatalf("blackout span %s %q on %q [%d +%d], want fault %q on faults [10 +30]",
			s.cat, s.name, s.track, s.ts, s.dur, want)
	}
	if tr.Counter("faults.transitions").Value() != 2 {
		t.Fatalf("transitions = %d, want 2", tr.Counter("faults.transitions").Value())
	}
}

// TestHoldSpansShareATrack feeds two ACK holds at one port, the first
// granted and the second still held at flush: both spans land on the
// port's unique-label track, the granted one with its held count and
// the flushed one marked open.
func TestHoldSpansShareATrack(t *testing.T) {
	tr := NewCollector(Options{}).Trial("a")
	tr.Bind(sim.New(1))
	p := faultPort(tr)
	tr.Observe(netsim.Event{Kind: netsim.EvHold, At: 10, Port: p, Flow: 1, A: 1})
	tr.Observe(netsim.Event{Kind: netsim.EvHold, At: 20, Port: p, Flow: 2, A: 2})
	tr.Observe(netsim.Event{Kind: netsim.EvGrant, At: 30, Port: p, Flow: 1, A: 1})
	tr.Flush()
	got := map[string]event{}
	for _, e := range tr.rec.events() {
		if e.ph == 'X' && e.cat == "tfc" {
			got[e.name] = *e
		}
	}
	granted, flushed := got["ack-hold f1"], got["ack-hold f2"]
	if len(got) != 2 || granted.track != tr.portLabel(p) || flushed.track != granted.track {
		t.Fatalf("hold spans %+v, want f1 and f2 on track %q", got, tr.portLabel(p))
	}
	if granted.ts != 10 || granted.dur != 20 || flushed.ts != 20 {
		t.Fatalf("granted [%d +%d], flushed from %d; want [10 +20] and 20", granted.ts, granted.dur, flushed.ts)
	}
	if a := granted.args[:granted.nargs]; len(a) != 1 || a[0] != (Arg{"held", 1}) {
		t.Fatalf("granted span args %v, want [{held 1}]", a)
	}
	if a := flushed.args[:flushed.nargs]; len(a) != 1 || a[0] != (Arg{"open", 1}) {
		t.Fatalf("flushed span args %v, want [{open 1}]", a)
	}
}

// fill one collector with a fixed set of trials whose insertion order is
// permuted by `order`, as parallel runners would.
func buildCollector(order []string) *Collector {
	c := NewCollector(Options{})
	for _, key := range order {
		tr := c.Trial(key)
		s := sim.New(int64(len(key)))
		tr.Gauge("z.gauge", func() float64 { return float64(s.Now()) })
		tr.Gauge("a.gauge", func() float64 { return 1 })
		tr.Bind(s)
		s.RunUntil(5 * sim.Millisecond)
		tr.Counter("b.count").Add(int64(len(key)))
		tr.Counter("a.count").Inc()
		tr.Histogram("h", 1, 10, 100).Observe(float64(len(key)))
		tr.Span("cat", "span "+key, "track", 0, 100)
		tr.InstantAt(s.Now(), "cat", "hit "+key, "other")
	}
	return c
}

func TestExportDeterministicAcrossInsertionOrder(t *testing.T) {
	a := buildCollector([]string{"t1", "t2", "t3"})
	b := buildCollector([]string{"t3", "t1", "t2"})
	var ta, tb, ma, mb bytes.Buffer
	if err := a.WriteTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("trace output depends on trial insertion order")
	}
	if err := a.WriteMetrics(&ma); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
		t.Error("metrics output depends on trial insertion order")
	}
}

func TestWriteTraceValidates(t *testing.T) {
	c := buildCollector([]string{"x", "y"})
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("emitted trace fails own validation: %v", err)
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"no traceEvents": `{"displayTimeUnit":"ms"}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		"missing name":   `{"traceEvents":[{"ph":"i","ts":0,"pid":0,"tid":0}]}`,
		"float pid":      `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":0.5,"tid":0}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":0,"tid":0}]}`,
		"meta no args":   `{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0}]}`,
	}
	for name, in := range cases {
		if err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ValidateTrace accepted malformed input", name)
		}
	}
}

func TestMetricsSnapshotShape(t *testing.T) {
	c := buildCollector([]string{"k"})
	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Schema string `json:"schema"`
		Trials []struct {
			Key      string `json:"key"`
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
			Gauges []struct {
				Name string    `json:"name"`
				TNs  []int64   `json:"t_ns"`
				V    []float64 `json:"v"`
			} `json:"gauges"`
		} `json:"trials"`
	}
	if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
		t.Fatal(err)
	}
	if mf.Schema != "tfcsim-metrics-v1" {
		t.Fatalf("schema = %q", mf.Schema)
	}
	if len(mf.Trials) != 1 || mf.Trials[0].Key != "k" {
		t.Fatalf("trials = %+v", mf.Trials)
	}
	tr := mf.Trials[0]
	// Counters and gauges must come out name-sorted.
	if tr.Counters[0].Name != "a.count" || tr.Counters[1].Name != "b.count" {
		t.Fatalf("counters not sorted: %+v", tr.Counters)
	}
	if tr.Gauges[0].Name != "a.gauge" || tr.Gauges[1].Name != "z.gauge" {
		t.Fatalf("gauges not sorted: %+v", tr.Gauges)
	}
	if len(tr.Gauges[0].TNs) != len(tr.Gauges[0].V) || len(tr.Gauges[0].TNs) == 0 {
		t.Fatalf("gauge series malformed: %+v", tr.Gauges[0])
	}
}
