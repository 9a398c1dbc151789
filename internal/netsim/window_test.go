package netsim_test

// Fault windows under steady traffic: a link cut and a loss model
// installed mid-run, the EvLink/EvLoss records they emit, and the same
// seed giving the same fault outcome.

import (
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/netsim/netsimtest"
	"tfcsim/internal/sim"
)

// sendEvery has h1 send n full frames of flow 1 to h2, one every gap.
func sendEvery(s *sim.Simulator, h1, h2 *netsim.Host, n int, gap sim.Time) {
	for i := 0; i < n; i++ {
		pkt := &netsim.Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Seq: int64(i) * netsim.MSS, Payload: netsim.MSS}
		s.At(sim.Time(i)*gap, func() { h1.Send(pkt) })
	}
}

func TestLinkDownWindow(t *testing.T) {
	tap := &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvLink, netsim.EvLoss, netsim.EvDeliver)}
	s, h1, h2, sw, k := line(1, tap)
	out := sw.PortTo(h2.ID())
	s.At(1*sim.Millisecond, out.SetDown)
	s.At(3*sim.Millisecond, out.SetUp)
	// One packet every 100us for 5ms: those arriving at the switch inside
	// [1ms, 3ms) are dropped at the wire, the rest deliver.
	sendEvery(s, h1, h2, 50, 100*sim.Microsecond)
	s.Run()
	if out.Down() {
		t.Fatal("port still down after restore")
	}
	if out.Drops == 0 {
		t.Fatal("no drops during a 2ms blackout under steady traffic")
	}
	var faults []netsimtest.Record
	for _, r := range tap.Recs {
		if r.Kind != netsim.EvDeliver {
			faults = append(faults, r)
		} else if r.At >= 1*sim.Millisecond+20*sim.Microsecond && r.At < 3*sim.Millisecond {
			t.Fatalf("packet delivered at %v, inside the blackout", r.At)
		}
	}
	if k.pkts+int(out.Drops) != 50 {
		t.Fatalf("delivered %d + dropped %d != 50 sent", k.pkts, out.Drops)
	}
	// The probe sees both transitions, in order, at the port.
	if len(faults) != 2 || faults[0].Kind != netsim.EvLink || faults[0].A != 1 ||
		faults[1].Kind != netsim.EvLink || faults[1].A != 0 || faults[0].Port != out {
		t.Fatalf("fault records = %+v", faults)
	}
	if faults[0].At != 1*sim.Millisecond || faults[1].At != 3*sim.Millisecond {
		t.Fatalf("fault record times = %v, %v", faults[0].At, faults[1].At)
	}
}

func TestBurstyLossWindow(t *testing.T) {
	faults := &netsimtest.Tap{Kinds: netsim.KindsOf(netsim.EvLink, netsim.EvLoss)}
	s, h1, h2, sw, k := line(1, faults)
	out := sw.PortTo(h2.ID())
	// Total loss from the moment the model is installed to the end of the
	// run.
	m := netsim.AlwaysBad()
	at := sim.Millisecond
	s.At(at, func() { out.SetLoss(m) })
	s.At(at-sim.Microsecond, func() {
		if out.Loss() != nil {
			t.Error("loss model installed before at")
		}
	})
	// One packet every 100us for 3ms: the ten sent before at deliver,
	// every later one is lost.
	sendEvery(s, h1, h2, 30, 100*sim.Microsecond)
	s.Run()
	if out.Loss() != m {
		t.Fatal("loss model not installed to the end of the run")
	}
	if k.pkts != 10 || out.Drops != 20 {
		t.Fatalf("delivered %d, dropped %d; want 10, 20", k.pkts, out.Drops)
	}
	if r := faults.Recs; len(r) != 1 || r[0].Kind != netsim.EvLoss || r[0].A != 1 ||
		r[0].At != at || r[0].Port != out {
		t.Fatalf("fault records = %+v", r)
	}
}

// TestFaultWindowDeterminism runs a lossy blackout scenario twice from
// the same seed and compares every counter: the same seed drives the
// same fault outcome.
func TestFaultWindowDeterminism(t *testing.T) {
	run := func() (int64, int64, int) {
		s, h1, h2, sw, k := line(99, nil)
		out := sw.PortTo(h2.ID())
		s.At(sim.Millisecond, out.SetDown)
		s.At(1500*sim.Microsecond, out.SetUp)
		m := netsim.NewGilbertElliott(0.3, 4)
		s.At(2*sim.Millisecond, func() { out.SetLoss(m) })
		sendEvery(s, h1, h2, 100, 40*sim.Microsecond)
		s.Run()
		return out.Drops, out.TxPackets, k.pkts
	}
	d1, tx1, n1 := run()
	d2, tx2, n2 := run()
	if d1 != d2 || tx1 != tx2 || n1 != n2 {
		t.Fatalf("runs diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, tx1, n1, d2, tx2, n2)
	}
	if d1 == 0 {
		t.Fatal("scenario injected no loss at all")
	}
}
