package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// spec mirrors BENCHMARK.json at the repository root: the declared
// workloads, the bounded end-to-end metrics and the per-layer names.
type spec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	sp := new(spec)
	return sp, readJSON(path, sp)
}

// printReport prints every metric of one workload by name, with its unit.
func printReport(w io.Writer, rp *report) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tseed %d\treps %d\ttrials %d\tfailed_trials %d\tsim_events %d\tsim_digest %s\n",
		rp.Workload, rp.Seed, rp.Reps, rp.Trials, rp.FailedTrials, rp.SimEvents, rp.SimDigest)
	for _, ms := range append(append([]metricSpec(nil), gated...), reported...) {
		if st, ok := rp.EndToEnd[ms.name]; ok {
			fmt.Fprintf(tw, "  %s\t%s\t%s\tmin %s\tmax %s\tn %d\n", ms.name, ms.unit,
				fmtValue(st.Median), fmtValue(st.Min), fmtValue(st.Max), st.N)
		}
	}
	for _, ms := range perLayer {
		if lv, ok := rp.PerLayer[ms.name]; ok && lv.Value != 0 {
			fmt.Fprintf(tw, "  %s\t%s\t%s\n", ms.name, ms.unit, fmtValue(lv.Value))
		}
	}
	tw.Flush()
	for _, f := range rp.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// fmtValue prints a number with enough digits to compare by eye.
func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e15:
		return fmt.Sprintf("%.0f", v)
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// verdict is how one metric of B stands against A.
type verdict string

const (
	same       verdict = "ok"
	better     verdict = "better"
	worse      verdict = "WORSE"
	unresolved verdict = "unresolved" // either side's own spread exceeds the bound
	differs    verdict = "DIFFERS"    // an exact count or digest changed
)

// row is one line of the comparison table.
type row struct {
	workload, metric, unit string
	a, b                   float64
	spreadA, spreadB       string // "n=1" where one sample leaves none to show
	bound                  string
	verdict                verdict
}

// fmtSpread prints a stat's own spread.
func fmtSpread(st stat) string {
	if st.N < 2 {
		return fmt.Sprintf("n=%d", st.N)
	}
	return fmt.Sprintf("%.1f%%", 100*st.Spread)
}

// judge compares B's median with A's for a metric that may worsen by
// bound (a share of A's median) plus abs.
func judge(a, b stat, lowerIsBetter bool, bound, abs float64) verdict {
	delta := b.Median - a.Median
	if !lowerIsBetter {
		delta = -delta
	}
	allowed := math.Max(bound*math.Abs(a.Median), abs)
	noisy := a.Spread > bound || b.Spread > bound
	switch {
	case delta > allowed:
		// A's every rep beating B's every rep settles it even when noisy.
		if noisy && !(lowerIsBetter && a.Max < b.Min || !lowerIsBetter && a.Min > b.Max) {
			return unresolved
		}
		return worse
	case noisy:
		return unresolved
	case delta < -allowed:
		return better
	}
	return same
}

// compareDocs builds the comparison of B against A under sp's bounds.
func compareDocs(sp *spec, a, b *document) []row {
	var rows []row
	for _, ra := range a.Workloads {
		rb := b.find(ra.Workload)
		if rb == nil {
			rows = append(rows, row{workload: ra.Workload, metric: "(workload)", verdict: differs})
			continue
		}
		timing := func(name, unit string, lower bool, bound, abs float64, boundText string) {
			sa, okA := ra.EndToEnd[name]
			sb, okB := rb.EndToEnd[name]
			if !okA && !okB {
				return
			}
			v := differs
			if okA && okB {
				v = judge(sa, sb, lower, bound, abs)
			}
			rows = append(rows, row{ra.Workload, name, unit, sa.Median, sb.Median, fmtSpread(sa), fmtSpread(sb), boundText, v})
		}
		for _, m := range sp.EndToEnd {
			timing(m.Name, m.Unit, m.Better == "lower", m.Bound, 0, fmt.Sprintf("%.0f%%", 100*m.Bound))
			if m.Name == "run_s" {
				timing("pkt_hops_per_s", "1/s", false, m.Bound, 0, fmt.Sprintf("%.0f%%", 100*m.Bound))
			}
		}
		timing("allocs_per_pkt_hop", "count", true, allocsPerHopFrac, allocsPerHopAbs,
			fmt.Sprintf("+%g or %.0f%%", allocsPerHopAbs, 100*allocsPerHopFrac))
		exact := func(name, unit string, va, vb float64) {
			v := same
			if va != vb {
				v = differs
			}
			rows = append(rows, row{workload: ra.Workload, metric: name, unit: unit, a: va, b: vb, bound: "=", verdict: v})
		}
		zero := func(name string, va, vb int) {
			v := same
			if va != 0 || vb != 0 {
				v = worse
			}
			rows = append(rows, row{workload: ra.Workload, metric: name, unit: "count", a: float64(va), b: float64(vb), bound: "0", verdict: v})
		}
		zero("failed_trials", ra.FailedTrials+len(ra.Failures), rb.FailedTrials+len(rb.Failures))
		if ra.Claims > 0 || rb.Claims > 0 {
			zero("claims_failed", ra.ClaimsFailed, rb.ClaimsFailed)
		}
		v := same
		if ra.SimDigest != rb.SimDigest {
			v = differs
		}
		rows = append(rows, row{workload: ra.Workload, metric: "sim_digest " + ra.SimDigest + " / " + rb.SimDigest, bound: "=", verdict: v})
		exact("sim.events", "count", float64(ra.SimEvents), float64(rb.SimEvents))
		for _, ms := range perLayer {
			la, okA := ra.PerLayer[ms.name]
			lb, okB := rb.PerLayer[ms.name]
			if ms.exact && okA && okB && ms.name != "sim.events" {
				exact(ms.name, ms.unit, la.Value, lb.Value)
			}
		}
	}
	return rows
}

func violations(rows []row) (n int) {
	for _, r := range rows {
		if r.verdict == worse || r.verdict == differs {
			n++
		}
	}
	return n
}

// printComparison prints one table; equal exact counts are summarised.
func printComparison(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tB/A\tspread A\tspread B\tbound\tverdict")
	equal := 0
	for _, r := range rows {
		if r.bound == "=" && r.verdict == same {
			equal++
			continue
		}
		ratio := ""
		if r.a != 0 {
			ratio = fmt.Sprintf("%.3f", r.b/r.a)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.workload, r.metric, r.unit,
			fmtValue(r.a), fmtValue(r.b), ratio, r.spreadA, r.spreadB, r.bound, r.verdict)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d exact counts and digests identical\n", equal)
}

func compareOrLedger(ledger bool, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("want two result documents, got %d arguments", len(files))
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	a, b := new(document), new(document)
	if err := readJSON(files[0], a); err != nil {
		return err
	}
	if err := readJSON(files[1], b); err != nil {
		return err
	}
	rows := compareDocs(sp, a, b)
	if ledger {
		return writeLedger(os.Stdout, files, a, b, rows)
	}
	printComparison(os.Stdout, rows)
	if n := violations(rows); n > 0 {
		return fmt.Errorf("%d violations", n)
	}
	var open []string
	for _, r := range rows {
		if r.verdict == unresolved {
			open = append(open, r.workload+"/"+r.metric)
		}
	}
	if len(open) > 0 {
		fmt.Printf("unresolved (spread wider than the bound; not \"unchanged\"): %s\n", strings.Join(open, ", "))
	}
	return nil
}
