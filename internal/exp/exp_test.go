package exp

import (
	"context"
	"fmt"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/netsim/netsimtest"
	"tfcsim/internal/runner"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
)

// testPool fans a test's trials across cores, every trial on seed 1.
func testPool() *runner.Pool { return &runner.Pool{Seed: 1} }

func TestFig06RTTAccuracy(t *testing.T) {
	r := RTTAccuracy(RTTAccuracyConfig{
		Duration: 500 * sim.Millisecond,
		Window:   50 * sim.Millisecond,
	})
	if r.MeasuredRTTB.N() < 3 || r.Reference.N() < 10 {
		t.Fatalf("too few samples: rttb=%d ref=%d", r.MeasuredRTTB.N(), r.Reference.N())
	}
	med, ref := r.MeasuredRTTB.Percentile(50), r.Reference.Percentile(50)
	// Shape (paper Fig 6): measured rtt_b sits at or slightly below the
	// reference RTT, and both are far below the 160us init.
	if med > ref*1.1 {
		t.Errorf("rtt_b median %.1fus above reference %.1fus", med, ref)
	}
	if med > 150 || med < 20 {
		t.Errorf("rtt_b median %.1fus implausible for testbed topology", med)
	}
	t.Logf("\n%s", r)
}

func TestFig07NeAccuracy(t *testing.T) {
	r := NeAccuracy(NeAccuracyConfig{Interval: 40 * sim.Millisecond})
	if len(r.Points) < 10 {
		t.Fatalf("only %d points", len(r.Points))
	}
	// Shape: measured Ne tracks expected within ~2 flows on average
	// (paper Fig 7: "quite close ... variance small").
	if r.MeanAbsErr > 2.0 {
		t.Errorf("mean |measured-expected| = %.2f flows, want <= 2", r.MeanAbsErr)
	}
	// Inactive flows must be excluded: the last points (all n1 off) should
	// be near n2=5 again.
	last := r.Points[len(r.Points)-1]
	if last.Measured > 7 {
		t.Errorf("Ne after all n1 deactivated = %.1f, want ~5", last.Measured)
	}
	t.Logf("\n%s", r)
}

// TestSlotTapForwards runs Figs 6 and 7 short, bare and with a telemetry
// trial. The rendered results must be equal, and the trial must have
// counted slots (tfc.slots): the figures' slot tap forwards the records
// the builder's probe subscribed to instead of replacing it.
func TestSlotTapForwards(t *testing.T) {
	c := telemetry.NewCollector(telemetry.Options{})
	for _, fig := range []struct {
		name string
		run  func(TopoConfig) fmt.Stringer
	}{
		{"fig06", func(tc TopoConfig) fmt.Stringer {
			return RTTAccuracy(RTTAccuracyConfig{TopoConfig: tc,
				Duration: 200 * sim.Millisecond, Window: 50 * sim.Millisecond})
		}},
		{"fig07", func(tc TopoConfig) fmt.Stringer {
			return NeAccuracy(NeAccuracyConfig{TopoConfig: tc, Interval: 5 * sim.Millisecond})
		}},
	} {
		tr := c.Trial(fig.name)
		bare, observed := fig.run(TopoConfig{}).String(), fig.run(TopoConfig{Telemetry: tr}).String()
		if bare != observed {
			t.Errorf("%s: result changed when telemetry was attached:\n%s\nvs\n%s", fig.name, bare, observed)
		}
		if n := tr.Counter("tfc.slots").Value(); n == 0 {
			t.Errorf("%s: the trial counted no slots: the tap did not forward them", fig.name)
		}
	}
}

// TestSlotTapSubscribes: the slot tap subscribes the network to slots
// plus the kinds of the probe it wraps, and hands that probe only those.
func TestSlotTapSubscribes(t *testing.T) {
	e, hosts, recv, bott := Star(TopoConfig{Proto: TFC, Seed: 1}, 4, netsim.Gbps, 64<<10)
	inner := &netsimtest.Tap{Kinds: netsim.AllKinds} // keeps whatever it is handed
	e.Net.SetProbe(inner, netsim.KindsOf(netsim.EvDrop))
	slots := 0
	tapSlots(e, bott, func(netsim.Event) { slots++ })
	if _, kinds := e.Net.Probe(); kinds != netsim.KindsOf(netsim.EvDrop, netsim.EvSlot) {
		t.Fatalf("network subscribed to %b, want DROP and SLOT", kinds)
	}
	for _, h := range hosts {
		newFaucet(e.Dialer, h, recv).Start()
	}
	e.Sim.At(5*sim.Millisecond, bott.SetDown)
	e.Sim.RunUntil(10 * sim.Millisecond)
	if drops := inner.Count(netsim.EvDrop); slots == 0 || drops == 0 || drops != len(inner.Recs) {
		t.Fatalf("%d slots; the wrapped probe got %d records, %d of them drops", slots, len(inner.Recs), drops)
	}
}

func TestFig08to10QueueFairness(t *testing.T) {
	rs, err := Sweep(context.Background(), testPool(), nil, PerProto(QueueFairnessConfig{
		StartInterval: 40 * sim.Millisecond,
		Tail:          80 * sim.Millisecond,
	}, AllProtos), ProtoKey, QueueFairness)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[Proto]*QueueFairnessResult{}
	for _, r := range rs {
		byProto[r.Proto] = r
	}
	tfc, dctcp, tcp := byProto[TFC], byProto[DCTCP], byProto[TCP]
	// Fig 8 shape: TFC queue tiny; DCTCP bounded around K; TCP fills the
	// buffer.
	if tfc.AvgQueue > 15<<10 {
		t.Errorf("TFC avg queue %.0fB, want near zero (<15KB)", tfc.AvgQueue)
	}
	if tcp.MaxQueue < 200<<10 {
		t.Errorf("TCP max queue %dB, expected to fill ~256KB buffer", tcp.MaxQueue)
	}
	if dctcp.MaxQueue >= tcp.MaxQueue {
		t.Errorf("DCTCP max queue %d not below TCP %d", dctcp.MaxQueue, tcp.MaxQueue)
	}
	// Fig 9 shape: all protocols near line rate aggregate; TFC fair.
	for _, r := range rs {
		if r.AggGoodput < 0.75e9 {
			t.Errorf("%s aggregate goodput %.1f Mbps too low", r.Proto, r.AggGoodput/1e6)
		}
	}
	if tfc.JainIndex < 0.95 {
		t.Errorf("TFC Jain index %.3f, want ~1", tfc.JainIndex)
	}
	// Fig 10 shape: TFC converges fastest (about one round).
	if tfc.ConvergeIn < 0 {
		t.Error("TFC flow 3 never converged")
	}
	if tfc.ConvergeIn > 10*sim.Millisecond {
		t.Errorf("TFC convergence %v, want ~RTT-scale", tfc.ConvergeIn)
	}
	t.Logf("\n%s", FormatQueueFairness(rs))
}

func TestFig11WorkConserving(t *testing.T) {
	full := WorkConserving(WorkConservingConfig{Duration: 400 * sim.Millisecond})
	// Both bottlenecks near full utilization (paper: ~910-940 Mbps).
	if full.UplinkGoodput < 0.85e9 {
		t.Errorf("uplink goodput %.1f Mbps, want > 850", full.UplinkGoodput/1e6)
	}
	if full.DownlinkGoodput < 0.85e9 {
		t.Errorf("downlink goodput %.1f Mbps, want > 850", full.DownlinkGoodput/1e6)
	}
	// Near-zero queues (paper: ~2KB).
	if full.DownlinkAvgQ > 20<<10 {
		t.Errorf("downlink avg queue %.0fB, want small", full.DownlinkAvgQ)
	}
	cfg := WorkConservingConfig{Duration: 400 * sim.Millisecond}
	cfg.TFC.DisableAdjust = true
	ablated := WorkConserving(cfg)
	// A1 shape: without token adjustment the downlink cannot reclaim the
	// share its uplink-clamped flows leave stranded.
	if ablated.DownlinkGoodput > full.DownlinkGoodput*0.97 {
		t.Errorf("ablation downlink %.1f vs full %.1f Mbps: adjustment had no effect",
			ablated.DownlinkGoodput/1e6, full.DownlinkGoodput/1e6)
	}
	t.Logf("\n%s", FormatWorkConserving(full, ablated))
}

func TestFig12IncastTestbed(t *testing.T) {
	pts, err := Sweep(context.Background(), testPool(), nil, IncastGrid(IncastConfig{
		Rounds: 4, MaxDuration: 20 * sim.Second,
	}, []Proto{TFC, TCP}, []int{10, 60}), IncastKey, Incast)
	if err != nil {
		t.Fatal(err)
	}
	get := func(p Proto, n int) IncastPoint {
		for _, pt := range pts {
			if pt.Proto == p && pt.Senders == n {
				return pt
			}
		}
		t.Fatalf("missing point %s/%d", p, n)
		return IncastPoint{}
	}
	// Fig 12a shape: TFC holds 800-900+ Mbps at high fan-in; TCP collapses.
	tfc60, tcp60 := get(TFC, 60), get(TCP, 60)
	if tfc60.Goodput < 0.7e9 {
		t.Errorf("TFC@60 goodput %.1f Mbps, want high", tfc60.Goodput/1e6)
	}
	if tcp60.Goodput > tfc60.Goodput/2 {
		t.Errorf("TCP@60 goodput %.1f Mbps did not collapse vs TFC %.1f",
			tcp60.Goodput/1e6, tfc60.Goodput/1e6)
	}
	// Fig 12b shape: TFC no buffer backlog; TCP max queue ~ buffer.
	if tfc60.Timeouts != 0 {
		t.Errorf("TFC@60 suffered %d timeouts", tfc60.Timeouts)
	}
	if tcp60.Timeouts == 0 {
		t.Error("TCP@60 should suffer timeouts")
	}
	if tfc60.MaxQ > 64<<10 {
		t.Errorf("TFC@60 max queue %dKB, want small", tfc60.MaxQ>>10)
	}
	t.Logf("\n%s", FormatIncast("Fig 12 — testbed incast", pts))
}

func TestFig14Rho0(t *testing.T) {
	var cells []Rho0SweepConfig
	for _, rho := range []float64{0.90, 0.97, 1.00} {
		c := Rho0SweepConfig{Duration: 300 * sim.Millisecond}
		c.TFC.Rho0 = rho
		cells = append(cells, c)
	}
	pts, err := Sweep(context.Background(), testPool(), nil, cells,
		func(c Rho0SweepConfig) string { return fmt.Sprintf("rho%.2f", c.TFC.Rho0) }, Rho0Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatal("wrong point count")
	}
	// Fig 14 shape: goodput increases with rho0; queue grows at 1.0.
	if pts[0].Goodput >= pts[2].Goodput {
		t.Errorf("goodput not increasing in rho0: %.1f vs %.1f Mbps",
			pts[0].Goodput/1e6, pts[2].Goodput/1e6)
	}
	if pts[0].Goodput < 0.8e9 || pts[0].Goodput > 0.93e9 {
		t.Errorf("rho0=0.90 goodput %.1f Mbps out of plausible range", pts[0].Goodput/1e6)
	}
	if pts[0].AvgQ >= pts[2].AvgQ {
		t.Errorf("queue not increasing in rho0: %.0f vs %.0f bytes", pts[0].AvgQ, pts[2].AvgQ)
	}
	for _, p := range pts {
		if p.Drops != 0 {
			t.Errorf("rho0=%.2f dropped %d packets", p.Rho0, p.Drops)
		}
	}
	t.Logf("\n%s", FormatRho0Sweep(pts))
}

func TestFig13BenchmarkTestbed(t *testing.T) {
	rs, err := Sweep(context.Background(), testPool(), nil, PerProto(BenchmarkConfig{
		Duration:    200 * sim.Millisecond,
		MaxDuration: 10 * sim.Second,
		QueryRate:   150,
		BgFlowRate:  250,
	}, []Proto{TFC, TCP}), ProtoKey, Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	tfc, tcp := rs[0], rs[1]
	if tfc.QueryFCT.N() < 50 || tcp.QueryFCT.N() < 50 {
		t.Fatalf("too few query flows: %d / %d", tfc.QueryFCT.N(), tcp.QueryFCT.N())
	}
	// Fig 13a shape: TFC mean and tail query FCT well below TCP's
	// (TCP's 99.9th is RTO-bound, >= 200ms).
	if tfc.QueryFCT.Mean() >= tcp.QueryFCT.Mean() {
		t.Errorf("TFC mean query FCT %.0fus not below TCP %.0fus",
			tfc.QueryFCT.Mean(), tcp.QueryFCT.Mean())
	}
	if tfc.QueryFCT.Percentile(99.9) >= tcp.QueryFCT.Percentile(99.9) {
		t.Errorf("TFC tail %.0fus not below TCP tail %.0fus",
			tfc.QueryFCT.Percentile(99.9), tcp.QueryFCT.Percentile(99.9))
	}
	t.Logf("\n%s", FormatBenchmark("Fig 13 — testbed benchmark", rs))
}

func TestFig15IncastLargeScale(t *testing.T) {
	pts, err := Sweep(context.Background(), testPool(), nil, IncastGrid(IncastConfig{
		Rate: 10 * netsim.Gbps, BufBytes: 512 << 10,
		BlockBytes: 64 << 10, Rounds: 3, MaxDuration: 20 * sim.Second,
	}, []Proto{TFC, TCP}, []int{100}), IncastKey, Incast)
	if err != nil {
		t.Fatal(err)
	}
	tfc, tcp := pts[0], pts[1]
	// Fig 15 shape: TFC ~90% utilization, ~zero timeouts at any fan-in;
	// TCP collapses with timeouts.
	if tfc.Goodput < 6e9 {
		t.Errorf("TFC 10G incast goodput %.1f Gbps, want > 6", tfc.Goodput/1e9)
	}
	if tfc.MaxTOBlock != 0 {
		t.Errorf("TFC max TO/block = %.2f, want 0", tfc.MaxTOBlock)
	}
	if tcp.Timeouts == 0 {
		t.Error("TCP@100x10G should time out")
	}
	t.Logf("\n%s", FormatIncast("Fig 15 — large-scale incast (64KB)", pts))
}

func TestFig16BenchmarkLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale benchmark skipped in -short")
	}
	// Scaled-down Fig 16: with 35-way fan-in instead of 359, the buffer is
	// scaled to keep fan-in bytes / buffer comparable to the paper's
	// 359*2KB vs 512KB, so TCP still experiences the incast contention
	// that the figure is about.
	rs, err := Sweep(context.Background(), testPool(), nil, PerProto(BenchmarkConfig{
		Racks: 6, PerRack: 6, BufBytes: 48 << 10,
		Duration:    100 * sim.Millisecond,
		MaxDuration: 5 * sim.Second,
		QueryRate:   100,
		BgFlowRate:  200,
	}, []Proto{TFC, TCP}), ProtoKey, Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	tfc, tcp := rs[0], rs[1]
	if tfc.QueryFCT.N() == 0 {
		t.Fatal("no query flows completed")
	}
	// With the deliberately tightened buffer a small sliver (~5%) of TFC
	// queries still hits an RTO, which parks both protocols' 95th on the
	// 200ms MinRTO floor and makes that comparison pure noise — the
	// decisive comparisons are the mean and the 90th, where TFC must be
	// RTO-free while TCP's tail is RTO-bound.
	if tfc.QueryFCT.Mean() >= tcp.QueryFCT.Mean()/2 {
		t.Errorf("TFC mean %.0fus not well below TCP %.0fus",
			tfc.QueryFCT.Mean(), tcp.QueryFCT.Mean())
	}
	if tfc90, tcp90 := tfc.QueryFCT.Percentile(90), tcp.QueryFCT.Percentile(90); tfc90 >= tcp90/2 {
		t.Errorf("TFC 90th %.0fus not well below TCP %.0fus", tfc90, tcp90)
	}
	t.Logf("\n%s", FormatBenchmark("Fig 16 — large-scale benchmark (scaled)", rs))
}

func TestAblationNoDelayIncast(t *testing.T) {
	cfg := IncastConfig{Rounds: 3, MaxDuration: 20 * sim.Second}
	cfg.Proto = TFC
	cfg.Senders = 80
	cfg.BufBytes = 64 << 10
	full := Incast(cfg)
	cfg.TFC.DisableDelay = true
	ablated := Incast(cfg)
	if full.Drops != 0 {
		t.Errorf("full TFC dropped %d", full.Drops)
	}
	if ablated.Drops == 0 {
		t.Error("A2 ablation (no delay function) should drop at 80-sender fan-in")
	}
}
