package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tfcsim/internal/core"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// star builds n senders -> sw -> receiver, TFC-enabled, 1 Gbps.
func star(n int, proto Proto, buf int) (*sim.Simulator, *Dialer, []*netsim.Host, *netsim.Host, *netsim.Port) {
	s := sim.New(11)
	net := netsim.NewNetwork(s)
	sw := net.NewSwitch("sw")
	recv := net.NewHost("recv")
	recv.ProcJitter = 10 * sim.Microsecond
	cfg := netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond}
	var hosts []*netsim.Host
	for i := 0; i < n; i++ {
		h := net.NewHost("h")
		h.ProcJitter = 10 * sim.Microsecond
		net.Connect(h, sw, cfg)
		hosts = append(hosts, h)
	}
	net.Connect(sw, recv, netsim.LinkConfig{Rate: netsim.Gbps, Delay: 5 * sim.Microsecond, BufA: buf})
	net.ComputeRoutes()
	if proto == TFC {
		core.Attach(sw, core.SwitchConfig{})
	}
	d := &Dialer{Sim: s, Proto: proto}
	return s, d, hosts, recv, sw.PortTo(recv.ID())
}

func TestDialerProtocols(t *testing.T) {
	for _, proto := range []Proto{TFC, TCP, DCTCP} {
		s, d, hosts, recv, _ := star(1, proto, 256<<10)
		done := false
		conn := d.Dial(hosts[0], recv, nil, func() { done = true })
		s.At(0, func() {
			conn.Sender.Open()
			conn.Sender.Send(100 * 1460)
			conn.Sender.Close()
		})
		s.RunUntil(sim.Second)
		if !done {
			t.Fatalf("%s: flow did not complete", proto)
		}
		if conn.Received() != 100*1460 {
			t.Fatalf("%s: received %d", proto, conn.Received())
		}
	}
}

func TestDialerUniqueFlows(t *testing.T) {
	s, d, hosts, recv, _ := star(1, TCP, 256<<10)
	a := d.Dial(hosts[0], recv, nil, nil)
	b := d.Dial(hosts[0], recv, nil, nil)
	if a.Flow == b.Flow {
		t.Fatal("dialer reused flow IDs")
	}
	_ = s
}

func TestIncastRounds(t *testing.T) {
	s, d, hosts, recv, port := star(10, TFC, 256<<10)
	in := NewIncast(IncastConfig{
		Dialer: d, Senders: hosts, Receiver: recv,
		BlockBytes: 64 << 10, Rounds: 5,
	})
	in.Start(2 * sim.Millisecond)
	s.RunUntil(2 * sim.Second)
	if in.RoundsDone != 5 {
		t.Fatalf("rounds done = %d, want 5", in.RoundsDone)
	}
	want := int64(5 * 10 * (64 << 10))
	if got := in.BytesReceived(); got != want {
		t.Fatalf("bytes received = %d, want %d", got, want)
	}
	if len(in.RoundTimes) != 5 {
		t.Fatalf("round times recorded: %d", len(in.RoundTimes))
	}
	for _, rt := range in.RoundTimes {
		if rt <= 0 {
			t.Fatal("non-positive round time")
		}
	}
	if port.Drops != 0 {
		t.Fatalf("TFC incast dropped %d packets", port.Drops)
	}
	if in.MaxTimeoutsPerBlock() != 0 {
		t.Fatalf("TFC incast suffered timeouts: %v", in.MaxTimeoutsPerBlock())
	}
}

func TestIncastTCPCollapsesAtHighFanIn(t *testing.T) {
	// Sanity for the Fig 12/15 shape: TCP with many senders and a small
	// buffer suffers timeouts.
	s, d, hosts, recv, port := star(60, TCP, 64<<10)
	in := NewIncast(IncastConfig{
		Dialer: d, Senders: hosts, Receiver: recv,
		BlockBytes: 256 << 10, Rounds: 3,
	})
	in.Start(2 * sim.Millisecond)
	s.RunUntil(10 * sim.Second)
	if port.Drops == 0 {
		t.Fatal("expected drops for 60-sender TCP incast on 64KB buffer")
	}
	if in.TotalTimeouts() == 0 {
		t.Fatal("expected TCP timeouts")
	}
}

func TestEmpiricalDistBounds(t *testing.T) {
	d := NewEmpirical([][2]float64{{10, 0}, {20, 0.5}, {100, 1}})
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 10 || v > 100 {
			t.Fatalf("sample %v out of [10,100]", v)
		}
	}
}

func TestEmpiricalDistMedian(t *testing.T) {
	d := NewEmpirical([][2]float64{{10, 0}, {20, 0.5}, {100, 1}})
	r := rand.New(rand.NewSource(5))
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.Sample(r) <= 20 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("P(X<=20) = %.3f, want ~0.5", frac)
	}
}

func TestEmpiricalMean(t *testing.T) {
	d := NewEmpirical([][2]float64{{0, 0}, {10, 1}})
	if m := d.Mean(); m != 5 {
		t.Fatalf("mean of U(0,10) = %v, want 5", m)
	}
}

// Property: samples always lie within [min, max] of the distribution and
// the empirical CDF is consistent with the spec at the knots.
func TestQuickEmpiricalWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		d := WebSearchFlowSizes()
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			v := d.Sample(r)
			if v < 512 || v > 30000*1024 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{500, "<1KB"},
		{5 << 10, "1-10KB"},
		{50 << 10, "10KB-100KB"},
		{500 << 10, "100KB-1MB"},
		{5 << 20, "1-10MB"},
		{50 << 20, ">10MB"},
	}
	for _, c := range cases {
		if got := SizeBuckets[BucketIndex(c.n)].Label; got != c.want {
			t.Errorf("bucket(%d) = %s, want %s", c.n, got, c.want)
		}
	}
}

func TestBenchmarkGeneratesAndCompletes(t *testing.T) {
	s, d, hosts, recv, _ := star(8, TFC, 256<<10)
	all := append(append([]*netsim.Host{}, hosts...), recv)
	b := NewBenchmark(BenchmarkConfig{
		Dialer: d, Hosts: all,
		Duration:   50 * sim.Millisecond,
		QueryRate:  200, // ~10 queries in 50ms
		QueryFanIn: 4,
		BgFlowRate: 400,
	})
	b.Start()
	s.RunUntil(3 * sim.Second)
	if len(b.Flows) < 10 {
		t.Fatalf("only %d flows generated", len(b.Flows))
	}
	var queries, bg int
	for _, f := range b.Flows {
		if f.Query {
			queries++
			if f.Bytes != 2<<10 {
				t.Fatalf("query flow size %d", f.Bytes)
			}
		} else {
			bg++
		}
	}
	if queries == 0 || bg == 0 {
		t.Fatalf("queries=%d bg=%d, want both > 0", queries, bg)
	}
	if b.DoneFraction() < 0.95 {
		t.Fatalf("only %.0f%% of flows completed", b.DoneFraction()*100)
	}
	for _, f := range b.Flows {
		if f.Done && f.FCT <= 0 {
			t.Fatal("non-positive FCT on completed flow")
		}
	}
}

func TestBenchmarkStopsAtDuration(t *testing.T) {
	s, d, hosts, recv, _ := star(4, TCP, 256<<10)
	all := append(append([]*netsim.Host{}, hosts...), recv)
	b := NewBenchmark(BenchmarkConfig{
		Dialer: d, Hosts: all,
		Duration:   10 * sim.Millisecond,
		BgFlowRate: 1000,
	})
	b.Start()
	s.RunUntil(5 * sim.Second)
	for _, f := range b.Flows {
		if f.Start >= 10*sim.Millisecond {
			t.Fatalf("flow arrived at %v, after duration", f.Start)
		}
	}
}
