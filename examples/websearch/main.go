// Websearch: the paper's realistic benchmark (§6.1.2) on the 9-host
// testbed topology — Poisson query fan-in (2 KB responses from 8 servers
// to one aggregator) over background flows drawn from the DCTCP
// web-search size distribution — comparing query-flow FCT tails across
// TFC, DCTCP and TCP.
//
// Expected shape (Fig 13a): TFC's mean and tail query FCT sit far below
// DCTCP's and TCP's, whose 99.9th percentiles are dominated by 200 ms
// retransmission timeouts.
//
// Run with: go run ./examples/websearch
package main

import (
	"context"
	"fmt"
	"os"

	"tfcsim"
	"tfcsim/internal/exp"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
)

func main() {
	fmt.Println("web-search benchmark on the 9-host testbed (300ms of arrivals)")
	fmt.Println()
	cfg := exp.BenchmarkConfig{
		Duration:   300 * sim.Millisecond,
		QueryRate:  200,
		BgFlowRate: 300,
	}
	// The three protocol runs are independent trials: fan them across
	// cores (results come back in protos order regardless).
	rs, err := exp.Sweep(context.Background(), &runner.Pool{Seed: 1}, nil,
		exp.PerProto(cfg, []tfcsim.Proto{tfcsim.TFC, tfcsim.DCTCP, tfcsim.TCP}), exp.ProtoKey, exp.Benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(exp.FormatBenchmark("testbed benchmark", rs))
}
