// Workconserving: the paper's Fig 5 multi-bottleneck scenario. Host 1
// sends 8 flows to host 4 and 2 flows to host 3; host 2 sends 2 flows to
// host 3. The S1->S2 uplink (10 flows) and the S2->host3 downlink (4
// flows) are both bottlenecks: the downlink's fair share for host 1's
// flows exceeds what the uplink allows them, so without the token
// adjustment (§4.5) the downlink would idle the stranded share.
//
// Expected shape (Fig 11): with TFC both links run near full with
// ~one-packet queues; the A1 ablation (adjustment off) leaves the
// downlink underutilized.
//
// Run with: go run ./examples/workconserving
package main

import (
	"fmt"

	"tfcsim/internal/exp"
	"tfcsim/internal/sim"
)

func main() {
	cfg := exp.WorkConservingConfig{Duration: sim.Second}
	full := exp.WorkConserving(cfg)
	cfg.TFC.DisableAdjust = true
	ablated := exp.WorkConserving(cfg)
	fmt.Println(exp.FormatWorkConserving(full, ablated))
}
