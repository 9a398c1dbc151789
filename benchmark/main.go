// Command benchmark is the tfcsim benchmark: seven named workloads, each
// measured end to end (set-up, run, export) and, on a traced pass, layer
// by layer. See README.md in this directory for the metric glossary and
// the procedure for claiming a gain.
//
// Usage, from the repository root:
//
//	go run ./benchmark -seed 1 -o out.json            every workload, untraced
//	go run ./benchmark -seed 1 -traced -o out.json    ... plus the traced pass
//	go run ./benchmark -workload NAME -seed 1 -seconds 10 -trace 0|1
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -ledger A.json B.json > benchmark/LEDGER.md
//
// With -workload the process runs that one workload and prints, as its
// last line, the result object BENCHMARK.json's contract asks for. Without
// it the process re-executes itself once per workload, one after another,
// so every workload gets a fresh heap and its own peak RSS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the contract's result line")
		seed    = flag.Int64("seed", 1, "workload seed: the only input")
		secs    = flag.Float64("seconds", 10, "time one run measures; fixes the number of timed reps")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and prints per-layer metrics")
		traced  = flag.Bool("traced", false, "without -workload: also run the traced pass of every workload")
		out     = flag.String("o", "", "write the full result document (or, with -workload, report) to this file")
		dir     = flag.String("dir", ".bench_out", "scratch directory for exported files and spans-<workload>.json")
		compare = flag.Bool("compare", false, "compare two result documents: -compare A.json B.json")
		ledger  = flag.Bool("ledger", false, "render LEDGER.md from two result documents: -ledger A.json B.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare || *ledger:
		err = compareOrLedger(*ledger, flag.Args())
	case *name != "":
		err = workloadMain(*name, *seed, *secs, *trace == 1, *dir, *out)
	default:
		err = allMain(*seed, *secs, *traced, *dir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of a -workload run, as the benchmark contract
// defines it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadMain(name string, seed int64, secs float64, traced bool, dir, out string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var rp *report
	var err error
	if traced {
		rp, err = tracedPass(w, &full, seed, dir)
	} else {
		rp, err = untracedPass(w, &full, seed, secs, dir)
	}
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, rp); err != nil {
			return err
		}
	}
	printReport(os.Stdout, rp)
	res := result{
		Correct:   rp.FailedTrials == 0 && rp.ClaimsFailed == 0 && len(rp.Failures) == 0,
		Attempted: rp.Trials * rp.Reps,
		Failed:    rp.FailedTrials + rp.ClaimsFailed,
		Metrics:   make(map[string]resultValue),
	}
	if traced {
		for _, ms := range perLayer {
			res.Metrics[ms.name] = resultValue{rp.PerLayer[ms.name].Value, ms.unit}
		}
	} else {
		for _, ms := range gated {
			res.Metrics[ms.name] = resultValue{rp.EndToEnd[ms.name].Median, ms.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// untracedPass is what the end-to-end metrics come from: one untimed
// warm-up rep, then the timed reps, no spans, no injected clocks.
func untracedPass(w *workload, sz *sizes, seed int64, secs float64, dir string) (*report, error) {
	n := int(secs / w.repSeconds)
	if min := w.minReps(); n < min {
		n = min
	}
	rp := &report{Workload: w.name, Seed: seed, Reps: n}
	dir = filepath.Join(dir, w.name)
	var limits []time.Duration
	want := ""
	if !w.noWarmup {
		warm := &rep{dir: dir}
		if err := runRep(w, sz, seed, warm); err != nil {
			return nil, err
		}
		want = warm.digest().String()
		limits = trialLimits(warm)
	}
	var reps []*rep
	for i := 0; i < n; i++ {
		r := &rep{dir: dir, limits: limits}
		if err := runRep(w, sz, seed, r); err != nil {
			return nil, err
		}
		reps = append(reps, r)
		rp.absorb(r, &want)
	}
	rp.EndToEnd = endToEnd(reps, peakRSSMB())
	return rp, nil
}

// absorb folds one rep's trials, failures and digest into the report.
// want is the digest every rep of the seed must reproduce.
func (rp *report) absorb(r *rep, want *string) {
	rp.Trials = len(r.trials)
	rp.SimEvents = r.events()
	rp.SimDigest = r.digest().String()
	rp.Claims, rp.ClaimsFailed = r.claims, rp.ClaimsFailed+r.claimsFailed
	for _, t := range r.trials {
		if t.failed != "" {
			rp.FailedTrials++
			rp.Failures = append(rp.Failures, t.name+": "+t.failed)
		}
	}
	if *want == "" {
		*want = rp.SimDigest
	} else if rp.SimDigest != *want {
		// Every trial of the rep is suspect: the seed no longer fixes
		// what is simulated.
		rp.FailedTrials += len(r.trials)
		rp.Failures = append(rp.Failures, fmt.Sprintf("sim_digest %s differs from %s of an earlier rep of the same seed", rp.SimDigest, *want))
	}
}

// tracedPass runs one untraced reference rep and one traced rep, checks
// that the traced one simulated the same thing, and reduces its spans to
// the per-layer metrics. Probes and cross-run deltas are measured here too.
func tracedPass(w *workload, sz *sizes, seed int64, dir string) (*report, error) {
	rp := &report{Workload: w.name, Seed: seed, Reps: 1}
	ref := &rep{dir: filepath.Join(dir, w.name)}
	if err := runRep(w, sz, seed, ref); err != nil {
		return nil, err
	}
	tr := newTracer(w.name)
	r := &rep{tr: tr, dir: ref.dir, limits: trialLimits(ref)}
	if err := runRep(w, sz, seed, r); err != nil {
		return nil, err
	}
	want := ref.digest().String()
	rp.absorb(r, &want)
	if r.events() != ref.events() {
		rp.Failures = append(rp.Failures, fmt.Sprintf("traced pass ran %d events, untraced %d", r.events(), ref.events()))
	}
	if err := checkSpans(tr.spans); err != nil {
		rp.Failures = append(rp.Failures, err.Error())
	}
	m := layerMetrics(r, tr.spans)
	m["bench.trace_overhead_frac"] = (seconds(r.setup+r.run+r.export)-float64(r.addedNs)/1e9)/seconds(ref.setup+ref.run+ref.export) - 1
	runProbes(m, sz)
	if w.extra != nil {
		if err := w.extra(m, ref, sz, seed, ref.dir); err != nil {
			return nil, err
		}
	}
	rp.PerLayer = make(map[string]layerValue, len(perLayer))
	for _, ms := range perLayer {
		rp.PerLayer[ms.name] = layerValue{Unit: ms.unit, Value: m[ms.name], Exact: ms.exact}
	}
	return rp, writeSpans(filepath.Join(dir, "spans-"+w.name+".json"), tr.spans)
}

// document is the result of a full run: what -compare and -ledger read.
type document struct {
	Schema    string    `json:"schema"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Env       env       `json:"env"`
	Workloads []*report `json:"workloads"`
}

const schema = "tfcsim-benchmark-v1"

// env records where the numbers were taken.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if e.Commit == "unknown" {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(b))
		}
	}
	return e
}

// allMain runs every workload in a process of its own, one at a time.
func allMain(seed int64, secs float64, traced bool, dir, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := &document{Schema: schema, Seed: seed, Seconds: secs, Traced: traced, Env: readEnv()}
	child := func(w *workload, trace int) (*report, error) {
		path := filepath.Join(dir, fmt.Sprintf("report-%s-%d.json", w.name, trace))
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs),
			"-trace", fmt.Sprint(trace), "-dir", dir, "-o", path}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
		}
		rp := new(report)
		if err := readJSON(path, rp); err != nil {
			return nil, err
		}
		return rp, os.Remove(path)
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "== %s\n", w.name)
		rp, err := child(w, 0)
		if err != nil {
			return err
		}
		if traced {
			tp, err := child(w, 1)
			if err != nil {
				return err
			}
			rp.PerLayer = tp.PerLayer
			rp.Failures = append(rp.Failures, tp.Failures...)
			if tp.SimDigest != rp.SimDigest || tp.SimEvents != rp.SimEvents {
				rp.Failures = append(rp.Failures, fmt.Sprintf("traced pass simulated %s (%d events), untraced %s (%d)",
					tp.SimDigest, tp.SimEvents, rp.SimDigest, rp.SimEvents))
			}
		}
		doc.Workloads = append(doc.Workloads, rp)
	}
	// The sharded engine must simulate exactly what the sequential one does.
	if seq, sh := doc.find("fattree_k16_tfc"), doc.find("fattree_k16_tfc_shards2"); seq.SimDigest != sh.SimDigest {
		sh.FailedTrials += sh.Trials
		sh.Failures = append(sh.Failures, fmt.Sprintf("sim_digest %s differs from the sequential engine's %s", sh.SimDigest, seq.SimDigest))
	}
	bad := 0
	for _, rp := range doc.Workloads {
		printReport(os.Stdout, rp)
		bad += rp.FailedTrials + rp.ClaimsFailed + len(rp.Failures)
	}
	if out != "" {
		if err := writeJSON(out, doc); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d failures (see above)", bad)
	}
	return nil
}

func (d *document) find(workload string) *report {
	for _, rp := range d.Workloads {
		if rp.Workload == workload {
			return rp
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
