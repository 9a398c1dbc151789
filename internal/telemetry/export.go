package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"tfcsim/internal/sim"
)

// traceWriter streams Chrome trace-event JSON ('X' spans, 'i' instants,
// 'C' counters, 'M' metadata; microsecond timestamps) one event at a
// time, byte for byte what encoding/json writes for the same objects:
// fixed field order, empty cat/dur/s/args omitted, args sorted by key
// (an event's keys are distinct). Nothing here allocates per event.
type traceWriter struct {
	w      *bufio.Writer
	buf    []byte            // the event being written, separator first
	quoted map[string][]byte // JSON literal of each distinct string so far
	err    error             // the first number JSON cannot hold
}

// str appends pre (punctuation and key) and s as a JSON string, escaped
// by encoding/json itself, once per distinct string.
func (tw *traceWriter) str(pre, s string) {
	q, ok := tw.quoted[s]
	if !ok {
		q, _ = json.Marshal(s) // a string cannot fail to marshal
		tw.quoted[s] = q
	}
	tw.buf = append(append(tw.buf, pre...), q...)
}

// num appends pre and f in encoding/json's float format: ES6 number to
// string, exponent form only below 1e-6 and from 1e21, exponent unpadded.
func (tw *traceWriter) num(pre string, f float64) {
	if (math.IsInf(f, 0) || math.IsNaN(f)) && tw.err == nil {
		tw.err = fmt.Errorf("trace: unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(append(tw.buf, pre...), f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 to e-9
		b = b[:n-1]
	}
	tw.buf = b
}

// ids appends the pid and tid fields.
func (tw *traceWriter) ids(pid, tid int) {
	tw.buf = strconv.AppendInt(append(tw.buf, `,"pid":`...), int64(pid), 10)
	tw.buf = strconv.AppendInt(append(tw.buf, `,"tid":`...), int64(tid), 10)
}

// end closes the event, writes it out and leaves the next one's
// separator in the buffer.
func (tw *traceWriter) end(tail string) {
	tw.w.Write(append(tw.buf, tail...))
	tw.buf = append(tw.buf[:0], ',')
}

// meta writes the 'M' event that names a process (tid 0) or a thread.
func (tw *traceWriter) meta(kind string, pid, tid int, name string) {
	tw.str(`{"name":`, kind)
	tw.buf = append(tw.buf, `,"ph":"M"`...)
	tw.ids(pid, tid)
	tw.str(`,"args":{"name":`, name)
	tw.end("}}")
}

// event writes one recorded event.
func (tw *traceWriter) event(e *event, pid, tid int) {
	tw.str(`{"name":`, e.name)
	if e.cat != "" {
		tw.str(`,"cat":`, e.cat)
	}
	tw.buf = append(append(tw.buf, `,"ph":"`...), e.ph, '"')
	tw.num(`,"ts":`, usec(e.ts))
	if e.dur != 0 {
		tw.num(`,"dur":`, usec(e.dur))
	}
	tw.ids(pid, tid)
	if e.ph == 'i' {
		tw.buf = append(tw.buf, `,"s":"t"`...) // thread-scoped instant
	}
	args := e.args // a copy, to sort by key
	for i := 1; i < int(e.nargs); i++ {
		for j := i; j > 0 && args[j].K < args[j-1].K; j-- {
			args[j], args[j-1] = args[j-1], args[j]
		}
	}
	pre, tail := `,"args":{`, "}"
	for _, a := range args[:e.nargs] {
		tw.str(pre, a.K)
		tw.num(":", a.V)
		pre, tail = ",", "}}"
	}
	tw.end(tail)
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteTrace writes the merged Chrome trace-event JSON for all trials —
// the object form Perfetto and chrome://tracing both load — in trial-key
// order (pid = sorted key index), so the output is byte-identical
// regardless of trial completion order or parallelism. Call only after
// every trial's simulation has finished.
func (c *Collector) WriteTrace(w io.Writer) error {
	tw := traceWriter{w: bufio.NewWriter(w), quoted: make(map[string][]byte)}
	tw.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for pid, t := range c.sorted() {
		t.Flush()
		tw.meta("process_name", pid, 0, t.key)
		// Thread ids are assigned from the sorted distinct track names of
		// the retained events — never from arrival order, which the
		// recorder does not keep.
		tracks := t.rec.tracks()
		tids := make(map[string]int, len(tracks))
		for i, track := range tracks {
			tids[track] = i + 1
			tw.meta("thread_name", pid, i+1, track)
		}
		for _, e := range t.rec.events() {
			tw.event(e, pid, tids[e.track])
		}
	}
	tw.w.WriteString("]}\n")
	if err := tw.w.Flush(); err != nil { // the first failed write's error
		return err
	}
	return tw.err
}

// Metrics snapshot JSON shapes: a file is
// {"schema": "tfcsim-metrics-v1", "trials": [metricsTrial…]}.
type metricsTrial struct {
	Key          string        `json:"key"`
	Counters     []counterJSON `json:"counters"`
	Gauges       []gaugeJSON   `json:"gauges"`
	Histograms   []histJSON    `json:"histograms"`
	TraceEvents  int           `json:"trace_events"`
	TraceDropped int64         `json:"trace_dropped"`
}

type counterJSON struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type gaugeJSON struct {
	Name string    `json:"name"`
	TNs  []int64   `json:"t_ns"`
	V    []float64 `json:"v"`
}

type histJSON struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// WriteMetrics writes the merged metrics snapshot for all trials, keys
// and metric names sorted, so output is byte-identical at any
// parallelism. Trials are encoded one at a time between hand-written
// separators, so no more than one trial's JSON is in memory; the bytes
// are what an encoding/json Encoder indenting by one space writes for the
// whole file.
func (c *Collector) WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n \"schema\": \"tfcsim-metrics-v1\",\n \"trials\": [")
	trials := c.sorted()
	for i, t := range trials {
		b, err := json.MarshalIndent(t.metricsJSON(), "  ", " ")
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n  ")
		bw.Write(b)
	}
	if len(trials) > 0 {
		bw.WriteString("\n ")
	}
	bw.WriteString("]\n}\n")
	return bw.Flush() // the first failed write's error
}

// metricsJSON flushes t (as WriteTrace does: the file must not depend on
// which ran) and returns its entry in the metrics file.
func (t *Trial) metricsJSON() metricsTrial {
	t.Flush()
	mt := metricsTrial{
		Key:          t.key,
		Counters:     []counterJSON{},
		Gauges:       []gaugeJSON{},
		Histograms:   []histJSON{},
		TraceEvents:  t.rec.retained(),
		TraceDropped: t.rec.dropped(),
	}
	for _, ctr := range t.reg.counters {
		mt.Counters = append(mt.Counters, counterJSON{ctr.name, ctr.v})
	}
	sort.Slice(mt.Counters, func(i, j int) bool { return mt.Counters[i].Name < mt.Counters[j].Name })
	for _, g := range t.reg.gauges {
		gj := gaugeJSON{Name: g.name, TNs: []int64{}, V: []float64{}}
		for i := range g.series.T {
			gj.TNs = append(gj.TNs, int64(g.series.T[i]))
			gj.V = append(gj.V, g.series.V[i])
		}
		mt.Gauges = append(mt.Gauges, gj)
	}
	sort.Slice(mt.Gauges, func(i, j int) bool { return mt.Gauges[i].Name < mt.Gauges[j].Name })
	for _, h := range t.reg.hists {
		mt.Histograms = append(mt.Histograms, histJSON{
			Name: h.name, Bounds: h.h.Bounds(), Counts: h.h.Counts(),
			Count: h.h.Count(), Sum: h.h.Sum(),
		})
	}
	sort.Slice(mt.Histograms, func(i, j int) bool { return mt.Histograms[i].Name < mt.Histograms[j].Name })
	return mt
}

// WriteFiles writes the trace and/or metrics files named in the
// collector's Options. Nil-safe.
func (c *Collector) WriteFiles() error {
	if c == nil {
		return nil
	}
	if err := writeFile(c.opts.TracePath, c.WriteTrace); err != nil {
		return err
	}
	return writeFile(c.opts.MetricsPath, c.WriteMetrics)
}

// writeFile creates path and fills it through write (an empty path is
// skipped).
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
