// Command tfcsim reproduces the evaluation of "TFC: Token Flow Control in
// Data Center Networks" (EuroSys 2016): every figure of the paper can be
// regenerated at quick (seconds) or paper (faithful parameters) scale.
// Independent trials of a sweep fan out across -j workers; the output is
// byte-identical at any parallelism.
//
// Usage:
//
//	tfcsim list
//	tfcsim run <experiment> [-scale quick|paper] [-proto a,b,...] [-j N] [-seed N] [-out FILE] [-csv DIR] [-trace FILE] [-metrics FILE] [-v]
//	tfcsim all [-scale quick|paper] [-proto a,b,...] [-j N] [-seed N] [-out FILE] [-csv DIR] [-trace FILE] [-metrics FILE] [-v]
//	tfcsim verify
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"tfcsim"
	"tfcsim/internal/telemetry"
)

// usage prints the help text and returns the usage-error exit status.
func usage() int {
	fmt.Fprintf(os.Stderr, `tfcsim — reproduction harness for TFC (EuroSys 2016)

Usage:
  tfcsim list                                  list experiments
  tfcsim run <name> [flags]                    run one experiment
  tfcsim all        [flags]                    run every experiment
  tfcsim verify                                run the paper's claims as checks

Flags for run/all:
  -scale quick|paper   experiment scale (default quick)
  -proto a,b,...       restrict protocol-matrix experiments to these
                       registered transports (registered: %s)
  -j N                 parallel trials (default GOMAXPROCS = %d; 1 = serial)
  -seed N              the run's seed; every trial runs with it
  -out FILE            also write output to this file
  -csv DIR             export raw series/CDF data as CSV (fig06, fig08-10, fig12, fig13)
  -trace FILE          write a Chrome trace-event JSON of the run (Perfetto / chrome://tracing)
  -metrics FILE        write the run's metrics snapshot JSON (counters, gauges, histograms)
  -http ADDR           serve a live introspection endpoint (JSON at /snapshot,
                       auto-refreshing HTML at /) while the run executes
  -spans N             sample 1-in-N flows for causal packet spans in the trace
                       (requires -trace; byte-identical at any -j)
  -watchdogs           enable invariant watchdogs (token conservation, zero-queueing,
                       BFC pairing, RTO storms, liveness); violations print a
                       diagnostic and write a flight-recorder dump
  -flightdir DIR       directory for watchdog flight-recorder dumps (default .; - disables)
  -v                   print per-trial progress to stderr
  -cpuprofile FILE     write a CPU profile of the run (go tool pprof)
  -memprofile FILE     write a heap profile taken after the run
`, strings.Join(tfcsim.Protocols(), ", "), runtime.GOMAXPROCS(0))
	return 2
}

func main() {
	// Ctrl-C cancels cleanly: in-flight trials finish, queued ones are
	// skipped, and the run reports the cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := cli(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// cli runs one tfcsim command line, writing results to stdout, and
// returns the exit status. Every clean-up a run needs — stopping the -http
// endpoint, closing the -out file, finishing the profiles — is deferred
// here, so it also runs when the run fails or ctx is cancelled; only main
// calls os.Exit.
func cli(ctx context.Context, argv []string, stdout io.Writer) (code int) {
	if len(argv) < 1 {
		return usage()
	}
	switch argv[0] {
	case "list":
		for _, e := range tfcsim.Experiments() {
			fmt.Fprintf(stdout, "%-18s %-22s %s\n", e.Name, e.Figure, e.Desc)
		}
	case "verify":
		report, ok := tfcsim.VerifyAll()
		fmt.Fprint(stdout, report)
		if !ok {
			fmt.Fprintln(stdout, "some claims FAILED")
			return 1
		}
		fmt.Fprintln(stdout, "all claims hold")
	case "run", "all":
		fs := flag.NewFlagSet(argv[0], flag.ExitOnError)
		scale := fs.String("scale", "quick", "experiment scale: quick or paper")
		protoFlag := fs.String("proto", "",
			"comma-separated protocol subset for matrix experiments (empty = experiment defaults)")
		jobs := fs.Int("j", 0, "parallel trials (0 = GOMAXPROCS)")
		seed := fs.Int64("seed", 1, "the run's seed; every trial runs with it")
		out := fs.String("out", "", "also write output to this file")
		csv := fs.String("csv", "", "export raw series/CDF data as CSV into this directory")
		tracePath := fs.String("trace", "", "write Chrome trace-event JSON to this file")
		metricsPath := fs.String("metrics", "", "write metrics snapshot JSON to this file")
		httpAddr := fs.String("http", "", "serve the live introspection endpoint on this address")
		spansEvery := fs.Int("spans", 0, "sample 1-in-N flows for causal packet spans (0 = off)")
		watchdogs := fs.Bool("watchdogs", false, "enable invariant watchdogs")
		flightDir := fs.String("flightdir", "", "flight-recorder dump directory (default .; - disables)")
		verbose := fs.Bool("v", false, "print per-trial progress to stderr")
		cpuprofile := fs.String("cpuprofile", "", "write CPU profile to this file")
		memprofile := fs.String("memprofile", "", "write heap profile to this file")
		all := argv[0] == "all"
		args := argv[1:]
		var name string
		if !all {
			if len(args) == 0 || args[0] == "" || args[0][0] == '-' {
				return usage()
			}
			name = args[0]
			args = args[1:]
		}
		if err := fs.Parse(args); err != nil {
			return 2
		}
		for _, f := range []struct {
			name string
			v    int
		}{{"j", *jobs}, {"spans", *spansEvery}} {
			if f.v < 0 {
				fmt.Fprintf(os.Stderr, "tfcsim: -%s must not be negative, got %d\n", f.name, f.v)
				return 2
			}
		}
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			path := *memprofile
			defer func() {
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				defer f.Close()
				runtime.GC() // settle the heap so the profile shows retained objects
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}()
		}

		opts := tfcsim.RunOptions{
			Scale:       tfcsim.Scale(*scale),
			Seed:        *seed,
			Parallelism: *jobs,
			CSVDir:      *csv,
		}
		if *protoFlag != "" {
			for _, p := range strings.Split(*protoFlag, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					continue
				}
				if !tfcsim.ProtocolRegistered(p) {
					fmt.Fprintf(os.Stderr, "tfcsim: unknown protocol %q (registered: %s)\n",
						p, strings.Join(tfcsim.Protocols(), ", "))
					return usage()
				}
				opts.Protos = append(opts.Protos, tfcsim.Proto(p))
			}
		}
		if *httpAddr != "" || *spansEvery > 0 || *watchdogs {
			if *spansEvery > 0 && *tracePath == "" {
				fmt.Fprintln(os.Stderr, "tfcsim: -spans requires -trace (spans are recorded into the trace file)")
				return 2
			}
			o := tfcsim.NewObservatory(tfcsim.ObsOptions{
				HTTPAddr:  *httpAddr,
				SpanEvery: *spansEvery,
				SpanSeed:  *seed,
				Watchdogs: *watchdogs,
				FlightDir: *flightDir,
			})
			if err := o.Start(); err != nil {
				fmt.Fprintln(os.Stderr, "tfcsim: obs:", err)
				return 1
			}
			defer o.Stop()
			opts.Obs = o
		}
		if *verbose {
			opts.Progress = func(ev tfcsim.ProgressEvent) {
				fmt.Fprintf(os.Stderr, "  [%s] trial %d (seed %d): %d events, %.2fs\n",
					ev.Experiment, ev.Trial.Index, ev.Trial.Seed,
					ev.Trial.Events, ev.Trial.Wall.Seconds())
			}
		}

		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, err)
					code = 1
				}
			}()
			w = io.MultiWriter(stdout, f)
		}

		j := *jobs
		if j <= 0 {
			j = runtime.GOMAXPROCS(0)
		}
		exps := tfcsim.Experiments()
		if !all {
			e, ok := tfcsim.Find(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "tfcsim: unknown experiment %q (try `tfcsim list`)\n", name)
				return 1
			}
			exps = []tfcsim.Experiment{e}
		}
		for _, e := range exps {
			o := opts
			if *tracePath != "" || *metricsPath != "" {
				o.Telemetry = &telemetry.Options{
					TracePath:   perExpPath(*tracePath, e.Name, all),
					MetricsPath: perExpPath(*metricsPath, e.Name, all),
				}
			}
			res, err := e.Run(ctx, o)
			if err != nil {
				// Returning, not exiting: the deferred clean-ups above must run.
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Fprintf(w, "== %s (scale=%s, seed=%d, j=%d) ==\n%s", res.Name, res.Scale, res.Seed, j, res.Text)
			fmt.Fprintf(w, "-- %d trials, %d sim events, %.2fs wall --\n\n",
				len(res.Trials), res.Events, res.Wall.Seconds())
		}
	default:
		return usage()
	}
	return 0
}

// perExpPath keeps path as-is for a single-experiment run; for `all` it
// inserts the experiment name before the extension so every experiment
// writes its own trace/metrics file instead of overwriting one.
func perExpPath(path, exp string, all bool) string {
	if path == "" || !all {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + exp + ext
}
