// Command benchjson converts `go test -bench` text output into stable JSON
// for machine comparison across commits (the BENCH_*.json artifacts in CI).
// The output is deterministic for a given input — no timestamps or
// environment beyond what the benchmark run itself printed — so two runs
// with identical numbers produce identical files.
//
// Usage:
//
//	go test -bench=. -count=5 | go run ./cmd/benchjson -label post -o BENCH_1.json
//	go run ./cmd/benchjson -label pre < bench.txt
//
// With -prev it also prints a delta table against a previously committed
// report, and -gate (repeatable) turns a metric bound into a hard failure:
//
//	go run ./cmd/benchjson -label 2 -o BENCH_2.json \
//	    -prev BENCH_1.json \
//	    -gate 'BenchmarkEngineThroughput:allocs/pkt-hop<=0' bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark result line. Repeated lines (from -count=N) appear
// as separate entries in input order, preserving the raw distribution for
// benchstat-style analysis.
type Bench struct {
	Name string `json:"name"`
	Pkg  string `json:"pkg,omitempty"`
	// N is the iteration count the framework settled on.
	N       int64   `json:"n"`
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds custom b.ReportMetric values (e.g. "Mevents/wallsec",
	// "allocs/pkt-hop") plus B/op and allocs/op when reported.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Label   string  `json:"label,omitempty"`
	Goos    string  `json:"goos,omitempty"`
	Goarch  string  `json:"goarch,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Benches []Bench `json:"benchmarks"`
}

// gateFlag collects repeated -gate specs.
type gateFlag []string

func (g *gateFlag) String() string { return strings.Join(*g, ",") }
func (g *gateFlag) Set(s string) error {
	*g = append(*g, s)
	return nil
}

func main() {
	label := flag.String("label", "", "label recorded in the report (e.g. commit or pre/post)")
	out := flag.String("o", "", "output file (default stdout)")
	prev := flag.String("prev", "", "previous report JSON to print a delta table against")
	var gates gateFlag
	flag.Var(&gates, "gate", "bound 'Benchmark:metric<=x' (or >=) that fails the run when unmet; repeatable")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fatal(fmt.Errorf("at most one input file"))
	}

	rep, err := parse(in)
	if err != nil {
		fatal(err)
	}
	rep.Label = *label
	if len(rep.Benches) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}

	if *prev != "" {
		old, err := loadReport(*prev)
		if err != nil {
			fatal(err)
		}
		printDelta(os.Stdout, old, rep)
	}
	failed := false
	for _, g := range gates {
		if err := checkGate(rep, g); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: GATE FAILED:", err)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate ok: %s\n", g)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadReport reads a previously written report JSON.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// means averages every metric (including ns/op) per benchmark name across
// the repeated -count entries of a report.
func means(rep *Report) map[string]map[string]float64 {
	sum := map[string]map[string]float64{}
	cnt := map[string]map[string]int{}
	add := func(name, metric string, v float64) {
		if sum[name] == nil {
			sum[name] = map[string]float64{}
			cnt[name] = map[string]int{}
		}
		sum[name][metric] += v
		cnt[name][metric]++
	}
	for _, b := range rep.Benches {
		// Strip the -GOMAXPROCS suffix, and only that: sub-benchmark names
		// may hold dashes of their own (ComputeRoutes/fattree-k16-2).
		name := b.Name
		if i := strings.LastIndex(name, "-"); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		add(name, "ns/op", b.NsPerOp)
		for m, v := range b.Metrics {
			add(name, m, v)
		}
	}
	for name, ms := range sum {
		for m := range ms {
			ms[m] /= float64(cnt[name][m])
		}
	}
	return sum
}

// printDelta writes a benchmark×metric table of prev vs curr means with the
// relative change, sorted by name then metric, for benchmarks present in
// both reports.
func printDelta(w io.Writer, old, cur *Report) {
	om, cm := means(old), means(cur)
	names := make([]string, 0, len(cm))
	for name := range cm {
		if om[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(w, "no common benchmarks with previous report (label %q)\n", old.Label)
		return
	}
	fmt.Fprintf(w, "\ndelta vs %q:\n", old.Label)
	fmt.Fprintf(w, "%-40s %-18s %14s %14s %9s\n", "benchmark", "metric", "prev", "curr", "delta")
	for _, name := range names {
		metrics := make([]string, 0, len(cm[name]))
		for m := range cm[name] {
			if _, ok := om[name][m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			p, c := om[name][m], cm[name][m]
			delta := "n/a"
			switch {
			case p == c:
				delta = "0.0%"
			case p != 0:
				delta = fmt.Sprintf("%+.1f%%", (c-p)/p*100)
			}
			fmt.Fprintf(w, "%-40s %-18s %14.4g %14.4g %9s\n", name, m, p, c, delta)
		}
	}
}

// checkGate evaluates one 'Benchmark:metric<=bound' (or '>=') spec against
// the report's per-benchmark means.
func checkGate(rep *Report, spec string) error {
	name, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("bad gate %q: want Benchmark:metric<=bound", spec)
	}
	op := "<="
	metric, boundStr, ok := strings.Cut(rest, "<=")
	if !ok {
		op = ">="
		metric, boundStr, ok = strings.Cut(rest, ">=")
	}
	if !ok {
		return fmt.Errorf("bad gate %q: no <= or >= bound", spec)
	}
	bound, err := strconv.ParseFloat(strings.TrimSpace(boundStr), 64)
	if err != nil {
		return fmt.Errorf("bad gate %q: %w", spec, err)
	}
	ms := means(rep)[name]
	if ms == nil {
		return fmt.Errorf("gate %q: benchmark %s not in report", spec, name)
	}
	v, found := ms[strings.TrimSpace(metric)]
	if !found {
		return fmt.Errorf("gate %q: metric %q not reported by %s", spec, metric, name)
	}
	if (op == "<=" && v > bound) || (op == ">=" && v < bound) {
		return fmt.Errorf("%s %s = %g, want %s %g", name, metric, v, op, bound)
	}
	return nil
}

func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line, pkg)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			rep.Benches = append(rep.Benches, b)
		}
	}
	return rep, sc.Err()
}

// parseBench parses one result line:
//
//	BenchmarkName-8   5   123 ns/op   6.4 Mevents/simsec   96 B/op   2 allocs/op
func parseBench(line, pkg string) (Bench, error) {
	f := strings.Fields(line)
	if len(f) < 3 {
		return Bench{}, fmt.Errorf("too few fields")
	}
	b := Bench{Name: f[0], Pkg: pkg}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, fmt.Errorf("iteration count: %w", err)
	}
	b.N = n
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Bench{}, fmt.Errorf("value %q: %w", f[i], err)
		}
		unit := f[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = v
	}
	return b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
