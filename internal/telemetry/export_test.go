package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// referenceTrace is the trace file as encoding/json writes it from plain
// structs and maps — what WriteTrace produced before it streamed, kept as
// the oracle for the hand-written encoder.
func referenceTrace(t *testing.T, c *Collector) []byte {
	t.Helper()
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	type ev struct {
		Name string             `json:"name"`
		Cat  string             `json:"cat,omitempty"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur,omitempty"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		S    string             `json:"s,omitempty"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	file := struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []any  `json:"traceEvents"`
	}{"ms", []any{}}
	for pid, tr := range c.sorted() {
		tr.Flush()
		file.TraceEvents = append(file.TraceEvents, meta{"process_name", "M", pid, 0, map[string]string{"name": tr.key}})
		tids := map[string]int{}
		for i, track := range tr.rec.tracks() {
			tids[track] = i + 1
			file.TraceEvents = append(file.TraceEvents, meta{"thread_name", "M", pid, i + 1, map[string]string{"name": track}})
		}
		for _, e := range tr.rec.events() {
			te := ev{Name: e.name, Cat: e.cat, Ph: string(e.ph), Ts: usec(e.ts), Pid: pid, Tid: tids[e.track]}
			for _, a := range e.args[:e.nargs] {
				if te.Args == nil {
					te.Args = map[string]float64{}
				}
				te.Args[a.K] = a.V
			}
			switch e.ph {
			case 'X':
				te.Dur = usec(e.dur)
			case 'i':
				te.S = "t"
			}
			file.TraceEvents = append(file.TraceEvents, te)
		}
	}
	var out bytes.Buffer
	if err := json.NewEncoder(&out).Encode(file); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestWriteTraceMatchesEncodingJSON(t *testing.T) {
	// Strings that need every escape encoding/json knows (quotes,
	// backslash, control bytes, the HTML trio, U+2028/9, invalid UTF-8)
	// and floats on both sides of its 'f'/'e' cutoffs.
	strs := []string{"plain", "h1->sw", `a"b\c`, "<&>", "é\u2028\u2029", "\x01\t\n", "bad\xffutf8", ""}
	nums := []float64{0, math.Copysign(0, -1), 1, -2.5, 65536, 123456.789, 1e-6, 9.99e-7, 1e-7, 5e-324,
		1e20, 1e21, 1.5e300, math.MaxFloat64, 1.0 / 3}
	c := NewCollector(Options{})
	if got, want := traceBytes(t, c), referenceTrace(t, c); !bytes.Equal(got, want) {
		t.Fatalf("empty collector: got %q, want %q", got, want)
	}
	for ti, key := range []string{"b<trial>", "a"} {
		tr := c.Trial(key)
		n := 0
		for _, s := range strs {
			for _, ph := range []byte("XiC") {
				for nargs := 0; nargs <= maxArgs; nargs++ {
					n++
					e := event{name: s, cat: strs[n%len(strs)], track: strs[(n/3)%len(strs)], ph: ph,
						ts: sim.Time(n*997 + ti), nargs: uint8(nargs)}
					if ph == 'X' {
						e.dur = sim.Time(n % 4 * 1234)
					}
					for i := 0; i < nargs; i++ { // keys in descending order: export sorts
						e.args[i] = Arg{strs[len(strs)-2-(n+i)%3] + string(rune('z'-i)), nums[(n+i)%len(nums)]}
					}
					tr.rec.push(&e)
				}
			}
		}
	}
	got, want := traceBytes(t, c), referenceTrace(t, c)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("trace differs from encoding/json's at byte %d:\n got  …%s\n want …%s",
			i, got[max(0, i-60):min(len(got), i+60)], want[max(0, i-60):min(len(want), i+60)])
	}
	if err := ValidateTrace(bytes.NewReader(got)); err != nil {
		t.Fatal(err)
	}

	// What JSON cannot hold is an error, as it was with encoding/json.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad := NewCollector(Options{})
		bad.Trial("k").CounterEventAt(1, "c", "n", "t", Arg{"v", v})
		if err := bad.WriteTrace(&bytes.Buffer{}); err == nil {
			t.Errorf("WriteTrace accepted an arg of %v", v)
		}
	}
}

func traceBytes(t *testing.T, c *Collector) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := c.WriteTrace(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestMetricsIndependentOfTrace pins the export bugfix: spans still open
// when the run ends are closed by the flush, so they must be counted in
// trace_events whether or not a trace was written first.
func TestMetricsIndependentOfTrace(t *testing.T) {
	export := func(traceFirst bool) []byte {
		c := NewCollector(Options{})
		tr := c.Trial("k")
		tr.Observe(netsim.Event{Kind: netsim.EvLoss, At: 5, Port: faultPort(tr), A: 1}) // never removed
		tr.Span("c", "closed", "t", 1, 2)
		var out bytes.Buffer
		if traceFirst {
			if err := c.WriteTrace(&out); err != nil {
				t.Fatal(err)
			}
			out.Reset()
		}
		if err := c.WriteMetrics(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	alone, after := export(false), export(true)
	if !bytes.Equal(alone, after) {
		t.Errorf("metrics written alone differ from metrics written after the trace:\n%s\n---\n%s", alone, after)
	}
	if !bytes.Contains(alone, []byte(`"trace_events": 2`)) {
		t.Errorf("want the open span counted (trace_events 2):\n%s", alone)
	}
}

// BenchmarkWriteTrace prices exporting one trial whose default-size ring
// has overflowed (ns/op is per trial): ordering the retained events and
// streaming them as JSON. Filling the ring is untimed.
func BenchmarkWriteTrace(b *testing.B) {
	tracks := make([]string, 64)
	for i := range tracks {
		tracks[i] = fmt.Sprintf("span f%d", i)
	}
	order := pushOrders()[1] // bounded disorder, as the probes push
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewCollector(Options{})
		tr := c.Trial("k")
		for j := 0; j < 3<<16; j++ {
			at := order.ts(j)
			tr.Span(SpanCat, "xmit", tracks[j%len(tracks)], at, at+1200, Arg{"seq", float64(j)}, Arg{"hop", 1})
		}
		b.StartTimer()
		if err := c.WriteTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteMetricsMatchesEncodingJSON holds the streamed metrics file to
// what an encoding/json Encoder indenting by one space writes for the
// whole file at once: with no trials, one, and several, among them a
// trial with no metrics at all and a gauge that never sampled.
func TestWriteMetricsMatchesEncodingJSON(t *testing.T) {
	several := buildCollector([]string{"t<&>", "t1"})
	several.Trial("bare")
	several.Trial("unsampled").Gauge("g", func() float64 { return 1 })
	for name, c := range map[string]*Collector{
		"none": NewCollector(Options{}), "one": buildCollector([]string{"k"}), "several": several,
	} {
		var got bytes.Buffer
		if err := c.WriteMetrics(&got); err != nil {
			t.Fatal(err)
		}
		file := struct {
			Schema string         `json:"schema"`
			Trials []metricsTrial `json:"trials"`
		}{"tfcsim-metrics-v1", []metricsTrial{}}
		for _, tr := range c.sorted() {
			file.Trials = append(file.Trials, tr.metricsJSON())
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(file); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteMetrics wrote\n%s\nwant\n%s", name, got.Bytes(), want.Bytes())
		}
	}
}
