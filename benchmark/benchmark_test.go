package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"testing"

	"tfcsim/internal/sim"
)

// tiny is the self-test's scale: seconds of work become milliseconds.
var tiny = sizes{
	dumbbellSim: 5 * sim.Millisecond,
	observedSim: 2 * sim.Millisecond,
	fatK:        4, fatWarm: sim.Millisecond, fatEnd: 3 * sim.Millisecond,
	incastSenders: []int{4, 8}, incastRounds: 2,
	wsRacks: 3, wsPerRack: 4, wsArrivals: 20 * sim.Millisecond,
	wsQueries: 100, wsFlows: 1000,
	probe:      1 << 12,
	runAllOnly: []string{"fig07", "ablation-delay"},
}

// TestWorkloads runs every workload at the self-test scale, untraced and
// traced, and holds the harness to its own rules: a seed fixes what is
// simulated (rep to rep, traced or not, sharded or sequential), span
// trees are well formed, and every declared metric is emitted.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	digests := make(map[string]string)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Zero seconds gives the minimum rep count; digest stability
			// across the warm-up and the timed reps is checked inside.
			rp, err := untracedPass(w, &tiny, 7, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rp.FailedTrials != 0 || len(rp.Failures) != 0 {
				t.Fatalf("untraced pass failed: %v", rp.Failures)
			}
			if rp.Reps < 2 || rp.Trials == 0 {
				t.Fatalf("reps %d, trials %d", rp.Reps, rp.Trials)
			}
			for _, ms := range gated {
				st, ok := rp.EndToEnd[ms.name]
				// The self-test scale skips the claims check, which is
				// run_all_quick's whole set-up.
				if !ok || st.Median <= 0 && !(ms.name == "setup_s" && w.name == "run_all_quick") {
					t.Errorf("%s = %v (present %v), want > 0", ms.name, st.Median, ok)
				}
			}
			// The other four are printed but cannot be in BENCHMARK.json;
			// nothing else may be emitted. (claims_failed needs the claims
			// check, which this scale skips.)
			want := map[string]bool{"failed_trials": true}
			for _, ms := range gated {
				want[ms.name] = true
			}
			if w.name != "run_all_quick" {
				want["pkt_hops_per_s"], want["allocs_per_pkt_hop"] = true, true
			}
			for _, ms := range reported {
				if _, ok := rp.EndToEnd[ms.name]; ok != want[ms.name] {
					t.Errorf("%s emitted: %v, want %v", ms.name, ok, want[ms.name])
				}
			}
			for name := range rp.EndToEnd {
				if !want[name] {
					t.Errorf("end-to-end metric %s emitted but not declared", name)
				}
			}
			digests[w.name] = rp.SimDigest

			tp, err := tracedPass(w, &tiny, 7, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(tp.Failures) != 0 {
				t.Fatalf("traced pass failed: %v", tp.Failures)
			}
			if tp.SimDigest != rp.SimDigest || tp.SimEvents != rp.SimEvents {
				t.Errorf("traced pass simulated %s (%d events), untraced %s (%d)",
					tp.SimDigest, tp.SimEvents, rp.SimDigest, rp.SimEvents)
			}
			if len(tp.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(tp.PerLayer), len(perLayer))
			}
			for _, ms := range perLayer {
				if _, ok := tp.PerLayer[ms.name]; !ok {
					t.Errorf("per-layer metric %s not emitted", ms.name)
				}
			}
			if v := tp.PerLayer["sim.events"].Value; v != float64(rp.SimEvents) {
				t.Errorf("sim.events = %v, want %d", v, rp.SimEvents)
			}

			var spans []span
			if err := readJSON(filepath.Join(dir, "spans-"+w.name+".json"), &spans); err != nil {
				t.Fatal(err)
			}
			if err := checkSpans(spans); err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, ns := range selfNs(spans) {
				if ns < 0 {
					t.Fatalf("negative self time %d", ns)
				}
				sum += ns
			}
			root := spans[0].EndNs - spans[0].StartNs
			if math.Abs(float64(sum-root)) > 0.01*float64(root) {
				t.Errorf("self times sum to %d ns, root span is %d ns", sum, root)
			}
			for _, s := range spans {
				if s.Workload != w.name || s.Layer == "" || s.Name == "" {
					t.Fatalf("span %+v is missing its workload, layer or name", s)
				}
			}
		})
	}
	if seq, sh := digests["fattree_k16_tfc"], digests["fattree_k16_tfc_shards2"]; seq == "" || seq != sh {
		t.Errorf("sharded sim_digest %q, sequential %q", sh, seq)
	}
}

// TestSpec holds BENCHMARK.json and the code to the same names, units and
// directions, and BENCHMARK.json to the limits of its contract.
func TestSpec(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || u != "" && !unit.MatchString(u) {
			t.Errorf("bad name %q or unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(sp.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(sp.EndToEnd), len(gated))
	}
	var setupBound, maxBound float64
	for i, m := range sp.EndToEnd {
		check(m.Name, m.Unit)
		if g := gated[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in code", i, m, g)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	if len(sp.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		check(m.Name, m.Unit)
		if l := perLayer[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in code", i, m, l)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", sp.RunSeconds, sp.Paths)
	}
}

// TestCompare checks -compare's verdicts: inside the bound, past it,
// too noisy to say, and an exact count that moved.
func TestCompare(t *testing.T) {
	sp := new(spec)
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), sp); err != nil {
		t.Fatal(err)
	}
	doc := func(runS [3]float64, digest string, events float64) *document {
		e2e := map[string]stat{"run_s": newStat("s", runS[:])}
		return &document{Workloads: []*report{{
			Workload: "dumbbell_tcp", Trials: 1, SimDigest: digest, EndToEnd: e2e,
			PerLayer: map[string]layerValue{"netsim.pkt_hops": {Unit: "count", Value: events, Exact: true}},
		}}}
	}
	verdictOf := func(rows []row, metric string) verdict {
		for _, r := range rows {
			if r.metric == metric {
				return r.verdict
			}
		}
		t.Fatalf("no row for %s", metric)
		return ""
	}
	base := doc([3]float64{1.00, 1.01, 1.02}, "aa", 10)
	for _, tc := range []struct {
		name       string
		b          *document
		metric     string
		want       verdict
		violations int
	}{
		{"same", doc([3]float64{1.02, 1.03, 1.04}, "aa", 10), "run_s", same, 0},
		{"worse", doc([3]float64{1.20, 1.21, 1.22}, "aa", 10), "run_s", worse, 1},
		{"better", doc([3]float64{0.80, 0.81, 0.82}, "aa", 10), "run_s", better, 0},
		{"noisy", doc([3]float64{0.90, 1.01, 1.30}, "aa", 10), "run_s", unresolved, 0},
		{"noisy but every rep slower", doc([3]float64{1.30, 1.50, 1.70}, "aa", 10), "run_s", worse, 1},
		{"exact count moved", doc([3]float64{1.00, 1.01, 1.02}, "aa", 11), "netsim.pkt_hops", differs, 1},
		{"digest moved", doc([3]float64{1.00, 1.01, 1.02}, "bb", 10), "sim_digest aa / bb", differs, 1},
	} {
		rows := compareDocs(sp, base, tc.b)
		if got := verdictOf(rows, tc.metric); got != tc.want {
			t.Errorf("%s: %s is %q, want %q", tc.name, tc.metric, got, tc.want)
		}
		if got := violations(rows); got != tc.violations {
			t.Errorf("%s: %d violations, want %d", tc.name, got, tc.violations)
		}
	}
}
