package exp

// Cross-validation: the closed-form predictions of internal/model against
// full packet-level simulation (analysis <-> simulation agreement is part
// of the reproduction's soundness story, DESIGN.md §3b).

import (
	"testing"

	"tfcsim/internal/core"
	"tfcsim/internal/model"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/workload"
)

func TestModelIncastRoundTime(t *testing.T) {
	// Simulated barrier round time vs the paced-regime prediction.
	const n = 60
	cfg := TopoConfig{Proto: TFC}
	e, senders, recv, _ := Star(cfg, n, netsim.Gbps, TestbedBuf)
	in := workload.NewIncast(workload.IncastConfig{
		Dialer: e.Dialer, Senders: senders, Receiver: recv,
		BlockBytes: 256 << 10, Rounds: 5,
	})
	in.Start(5 * sim.Millisecond)
	e.Sim.RunUntil(2 * sim.Second)
	if in.RoundsDone < 5 {
		t.Fatalf("only %d rounds done", in.RoundsDone)
	}
	pred := model.IncastRoundTime(n, 256<<10, netsim.Gbps, 0.97, netsim.MSS)
	// Use the later rounds (past convergence).
	got := in.RoundTimes[len(in.RoundTimes)-1]
	ratio := float64(got) / float64(pred)
	if ratio < 0.9 || ratio > 1.25 {
		t.Fatalf("simulated round %v vs predicted %v (ratio %.2f)", got, pred, ratio)
	}
}

func TestModelPacedGoodput(t *testing.T) {
	// Long-run incast goodput vs rho0 * line rate * payload efficiency.
	cfg := IncastConfig{Rounds: 6}
	cfg.Proto = TFC
	cfg.Senders = 60
	pt := Incast(cfg)
	pred := model.PacedGoodput(netsim.Gbps, 0.97, netsim.MSS)
	ratio := pt.Goodput / pred
	if ratio < 0.92 || ratio > 1.08 {
		t.Fatalf("simulated %v bps vs predicted %v (ratio %.2f)", pt.Goodput, pred, ratio)
	}
}

func TestModelWindowLimitedUtilization(t *testing.T) {
	// Single long flow on the testbed: measured utilization should match
	// the sqrt(rho0 * rtt_b / rtt_m) fixed point within ~10%.
	tc := TopoConfig{Proto: TFC}
	e := Testbed(tc)
	h1, h3 := e.Hosts[0], e.Hosts[2]
	f := newFaucet(e.Dialer, h1, h3)
	e.Sim.At(0, f.Start)
	e.Sim.RunUntil(100 * sim.Millisecond)
	base := f.conn.Received()
	e.Sim.RunUntil(300 * sim.Millisecond)
	goodput := float64(f.conn.Received()-base) * 8 / 0.2

	// Gather rtt_b and flow SRTT for the prediction.
	leaf := e.Switches[1]
	bott := leaf.PortTo(h3.ID())
	rttb := core.StateOf(leaf).PortState(bott).RTTB()
	rttm := f.conn.SRTT()
	pred := model.WindowLimitedUtilization(0.97, rttb, rttm) *
		float64(netsim.Gbps) * model.PayloadEfficiency(netsim.MSS)
	ratio := goodput / pred
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("simulated %.1f Mbps vs predicted %.1f (ratio %.2f; rttb=%v rttm=%v)",
			goodput/1e6, pred/1e6, ratio, rttb, rttm)
	}
}

func TestModelGrantIntervalObserved(t *testing.T) {
	// In the paced regime, consecutive data arrivals at the bottleneck
	// should average one grant interval apart.
	const n = 50
	tc := TopoConfig{Proto: TFC}
	e, senders, recv, bott := Star(tc, n, netsim.Gbps, TestbedBuf)
	for _, h := range senders {
		f := newFaucet(e.Dialer, h, recv)
		e.Sim.At(0, f.Start)
	}
	e.Sim.RunUntil(50 * sim.Millisecond)
	base := bott.TxPackets
	e.Sim.RunUntil(150 * sim.Millisecond)
	perPkt := (100 * sim.Millisecond) / sim.Time(bott.TxPackets-base)
	pred := model.GrantInterval(netsim.Gbps, 0.97, netsim.MSS)
	ratio := float64(perPkt) / float64(pred)
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("observed inter-packet %v vs predicted grant interval %v (ratio %.2f)",
			perPkt, pred, ratio)
	}
}
