package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"tfcsim/internal/core"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
	"tfcsim/internal/workload"
)

// A transport registered outside the in-tree set gets the sender probe:
// its connections' window moves and the sender metric families land in
// the trial's metrics like any in-tree window transport's.
func TestDialProbeCoversRegisteredTransport(t *testing.T) {
	const name = "telemetrytest-reno"
	transport.Register(name, transport.Factory{
		Dial: func(c transport.DialConfig) transport.Conn {
			s, r := tcp.Dial(tcp.Config{DialConfig: c})
			return transport.Conn{Sender: s, Received: r.Received, SRTT: s.SRTT}
		},
	})
	c := NewCollector(Options{})
	tr := c.Trial("k")
	s := sim.New(1)
	tr.Bind(s)
	net := netsim.NewNetwork(s)
	a, b := net.NewHost("a"), net.NewHost("b")
	sw := net.NewSwitch("sw")
	net.Connect(a, sw, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond})
	net.Connect(sw, b, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond})
	net.ComputeRoutes()
	InstrumentNetwork(tr, net)

	if p := tr.DialProbe(name); p == nil {
		t.Fatalf("DialProbe(%q) = nil for a registered transport", name)
	}
	if p := tr.DialProbe("tfc"); p == nil {
		t.Fatal("DialProbe(tfc) = nil: TFC's sender must be probed like any other")
	}
	if p := tr.DialProbe("no-such-transport"); p != nil {
		t.Fatalf("DialProbe(unregistered) = %v, want nil interface", p)
	}
	d := &workload.Dialer{Sim: s, Proto: workload.Proto(name), Probe: tr.DialProbe}
	conn := d.Dial(a, b, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(64 << 10)
	s.RunUntil(10 * sim.Millisecond)
	if conn.Received() != 64<<10 {
		t.Fatalf("received %d bytes, want %d", conn.Received(), 64<<10)
	}

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Trials []struct {
			Counters []struct {
				Name string `json:"name"`
			} `json:"counters"`
			Histograms []struct {
				Name  string `json:"name"`
				Count int64  `json:"count"`
			} `json:"histograms"`
		} `json:"trials"`
	}
	if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
		t.Fatal(err)
	}
	var rto bool
	for _, ctr := range mf.Trials[0].Counters {
		rto = rto || ctr.Name == "tcp.rto"
	}
	if !rto {
		t.Errorf("no tcp.rto counter in %+v", mf.Trials[0].Counters)
	}
	var cwnd int64 = -1
	for _, h := range mf.Trials[0].Histograms {
		if h.Name == "flow.cwnd" {
			cwnd = h.Count
		}
	}
	if cwnd <= 0 {
		t.Errorf("flow.cwnd histogram count = %d, want window samples", cwnd)
	}
}

// A TFC sender whose path blacks out for longer than its minimum RTO
// times out, and the trial books it: TFC's sender is probed like any
// other transport's, its switch-stamped window moves included.
func TestDialProbeBooksTFCTimeouts(t *testing.T) {
	tr := NewCollector(Options{}).Trial("k")
	s := sim.New(1)
	tr.Bind(s)
	net := netsim.NewNetwork(s)
	a, b := net.NewHost("a"), net.NewHost("b")
	sw := net.NewSwitch("sw")
	net.Connect(a, sw, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond})
	net.Connect(sw, b, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond})
	net.ComputeRoutes()
	core.Attach(sw, core.SwitchConfig{})
	InstrumentNetwork(tr, net)

	d := &workload.Dialer{Sim: s, Proto: "tfc", MinRTO: sim.Millisecond, Probe: tr.DialProbe}
	conn := d.Dial(a, b, nil, nil)
	conn.Sender.Open()
	conn.Sender.Send(256 << 10)
	bott := sw.PortTo(b.ID())
	s.At(200*sim.Microsecond, bott.SetDown)
	s.At(5*sim.Millisecond, bott.SetUp)
	s.RunUntil(100 * sim.Millisecond)
	if conn.Received() != 256<<10 {
		t.Fatalf("received %d bytes, want %d", conn.Received(), 256<<10)
	}
	if n := conn.Sender.Stats().Timeouts; n == 0 {
		t.Fatal("the blackout caused no timeout: the test exercises nothing")
	}
	if got, want := tr.Counter("tcp.rto").Value(), conn.Sender.Stats().Timeouts; got != want {
		t.Fatalf("tcp.rto = %d, want the sender's %d timeouts", got, want)
	}
	if tr.Counter("tcp.rtx_bytes").Value() == 0 {
		t.Fatal("no retransmitted bytes booked")
	}
	if n := tr.Histogram("flow.cwnd").h.Count(); n == 0 {
		t.Fatal("flow.cwnd is empty: the sender's RMA windows were not reported")
	}
}
