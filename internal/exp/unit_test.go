package exp

import (
	"math"
	"os"
	"strings"
	"testing"

	"tfcsim/internal/core"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

func TestJainIndex(t *testing.T) {
	if got := jain([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("jain(equal) = %v, want 1", got)
	}
	// One flow hogging everything among n: index = 1/n.
	if got := jain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("jain(hog) = %v, want 0.25", got)
	}
	if got := jain([]float64{0, 0}); got != 0 {
		t.Fatalf("jain(zeros) = %v, want 0", got)
	}
}

func TestTestbedShape(t *testing.T) {
	e := Testbed(TopoConfig{Proto: TCP})
	if len(e.Hosts) != 9 {
		t.Fatalf("testbed hosts = %d, want 9 (H1-H9)", len(e.Hosts))
	}
	if len(e.Switches) != 4 {
		t.Fatalf("testbed switches = %d, want 4 (NF0-NF3)", len(e.Switches))
	}
	// Core is switches[0]; leaves have 4 ports (core + 3 hosts).
	core := e.Switches[0]
	if len(core.Ports()) != 3 {
		t.Fatalf("core has %d ports, want 3", len(core.Ports()))
	}
	for _, leaf := range e.Switches[1:] {
		if len(leaf.Ports()) != 4 {
			t.Fatalf("leaf has %d ports, want 4", len(leaf.Ports()))
		}
	}
	// Intra-rack route must not traverse the core: NF1's port to H2 is
	// direct.
	h2 := e.Hosts[1]
	p := e.Switches[1].PortTo(h2.ID())
	if p == nil || p.Peer.ID() != h2.ID() {
		t.Fatal("intra-rack route goes through the core")
	}
}

func TestTestbedProtocolAttachment(t *testing.T) {
	eTFC := Testbed(TopoConfig{Proto: TFC})
	attached := 0
	for _, sw := range eTFC.Switches {
		if core.StateOf(sw) != nil {
			attached++
		}
	}
	if attached != 4 {
		t.Fatalf("TFC attached to %d switches, want 4", attached)
	}
	eD := Testbed(TopoConfig{Proto: DCTCP})
	for _, sw := range eD.Switches {
		for _, p := range sw.Ports() {
			if p.Hook == nil {
				t.Fatal("DCTCP marking hook missing on a switch port")
			}
		}
	}
	eT := Testbed(TopoConfig{Proto: TCP})
	for _, sw := range eT.Switches {
		if sw.Interceptor != nil {
			t.Fatal("plain TCP testbed must not have TFC interceptors")
		}
	}
}

func TestLeafSpineShape(t *testing.T) {
	e := LeafSpine(TopoConfig{Proto: TCP}, 3, 4, 512<<10)
	if len(e.Hosts) != 12 {
		t.Fatalf("hosts = %d, want 12", len(e.Hosts))
	}
	if len(e.Switches) != 4 { // spine + 3 leaves
		t.Fatalf("switches = %d, want 4", len(e.Switches))
	}
	// Uplinks are 10G, downlinks 1G.
	spine := e.Switches[0]
	for _, p := range spine.Ports() {
		if p.Rate != 10*netsim.Gbps {
			t.Fatalf("spine port at %v, want 10G", p.Rate)
		}
	}
	leaf := e.Switches[1]
	down := leaf.PortTo(e.Hosts[0].ID())
	if down.Rate != netsim.Gbps {
		t.Fatalf("downlink at %v, want 1G", down.Rate)
	}
}

func TestMultiBottleneckShape(t *testing.T) {
	e := MultiBottleneck(TopoConfig{Proto: TFC})
	if e.Uplink == nil || e.Downlink == nil {
		t.Fatal("bottleneck ports missing")
	}
	if e.Uplink.Peer.ID() != e.S2.ID() {
		t.Fatal("uplink must connect S1->S2")
	}
	if e.Downlink.Peer.ID() != e.H3.ID() {
		t.Fatal("downlink must connect S2->host3")
	}
	// host1's path to host3 must traverse both switches.
	p := e.S1.PortTo(e.H3.ID())
	if p == nil || p.Peer.ID() != e.S2.ID() {
		t.Fatal("S1 route to h3 must go via S2")
	}
}

func TestStarShape(t *testing.T) {
	_, senders, recv, bott := Star(TopoConfig{Proto: TFC}, 7, netsim.Gbps, 64<<10)
	if len(senders) != 7 {
		t.Fatalf("senders = %d", len(senders))
	}
	if bott.Peer.ID() != recv.ID() {
		t.Fatal("bottleneck port must face the receiver")
	}
	if bott.BufBytes != 64<<10 {
		t.Fatalf("bottleneck buffer = %d", bott.BufBytes)
	}
}

func TestFormatters(t *testing.T) {
	pts := []IncastPoint{{Proto: TFC, Senders: 10, BlockBytes: 64 << 10, Goodput: 9e8}}
	out := FormatIncast("title", pts)
	if !strings.Contains(out, "title") || !strings.Contains(out, "64KB") ||
		!strings.Contains(out, "900.0") {
		t.Fatalf("FormatIncast output:\n%s", out)
	}
	wc := &WorkConservingResult{UplinkGoodput: 9.4e8, DownlinkGoodput: 9.1e8}
	out = FormatWorkConserving(wc, nil)
	if !strings.Contains(out, "940.0") || strings.Contains(out, "A1") {
		t.Fatalf("FormatWorkConserving without ablation:\n%s", out)
	}
	out = FormatWorkConserving(wc, wc)
	if !strings.Contains(out, "A1") {
		t.Fatal("ablation row missing")
	}
	rp := []Rho0Point{{Rho0: 0.97, Goodput: 9e8, AvgQ: 512}}
	out = FormatRho0Sweep(rp)
	if !strings.Contains(out, "0.97") || !strings.Contains(out, "0.50") {
		t.Fatalf("FormatRho0Sweep output:\n%s", out)
	}
}

func TestFaucetLifecycle(t *testing.T) {
	e := Testbed(TopoConfig{Proto: TFC})
	f := newFaucet(e.Dialer, e.Hosts[0], e.Hosts[2])
	e.Sim.At(0, f.Start)
	e.Sim.RunUntil(20 * sim.Millisecond)
	if f.conn.Received() == 0 {
		t.Fatal("faucet not flowing")
	}
	f.Pause()
	e.Sim.RunUntil(40 * sim.Millisecond)
	at40 := f.conn.Received()
	e.Sim.RunUntil(60 * sim.Millisecond)
	if f.conn.Received() != at40 {
		t.Fatal("paused faucet kept sending")
	}
	f.Resume()
	e.Sim.RunUntil(80 * sim.Millisecond)
	if f.conn.Received() == at40 {
		t.Fatal("resumed faucet not flowing")
	}
	// Resume while active is a no-op.
	f.Resume()
}

func TestSaveCSVOutputs(t *testing.T) {
	dir := t.TempDir()
	pts := []IncastPoint{{Proto: TFC, Senders: 10, BlockBytes: 64 << 10, Goodput: 9e8}}
	if err := SaveIncastCSV(dir, "incast.csv", pts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/incast.csv")
	if err != nil || !strings.Contains(string(data), "tfc,10,64KB") {
		t.Fatalf("incast csv: %q %v", data, err)
	}
	r := &BenchmarkResult{Proto: TFC}
	r.QueryFCT.Add(100)
	r.QueryFCT.Add(200)
	if err := SaveBenchmarkCSV(dir, []*BenchmarkResult{r}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(dir + "/query_fct_cdf_tfc.csv")
	if err != nil || !strings.Contains(string(data), "fct_us,cdf") {
		t.Fatalf("benchmark csv: %q %v", data, err)
	}
}
