package netsim

import (
	"runtime"
	"testing"

	"tfcsim/internal/sim"
)

// sink consumes delivered packets (Host.Receive releases them afterwards).
type benchSink struct{ got int64 }

func (k *benchSink) Deliver(pkt *Packet) { k.got += int64(pkt.Payload) }

// pktHops sums transmitted packets over every port.
func pktHops(net *Network) int64 {
	var hops int64
	for _, n := range net.Nodes() {
		for _, p := range n.Ports() {
			hops += p.TxPackets
		}
	}
	return hops
}

// reportPerHop converts the malloc and packet-hop deltas of a measured
// window into the allocs/pkt-hop metric the perf trajectory tracks (≥5×
// below the ~4.7 of the pre-pooling engine).
func reportPerHop(b *testing.B, mallocs uint64, hops int64) {
	if hops > 0 {
		b.ReportMetric(float64(mallocs)/float64(hops), "allocs/pkt-hop")
	}
}

// BenchmarkSaturatedPort drives a single always-backlogged 10G port: the
// purest measure of the per-packet forwarding cost (enqueue, ring-buffer
// FIFO, two pooled events, delivery, release).
func BenchmarkSaturatedPort(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	net := NewNetwork(s)
	h1 := net.NewHost("h1")
	h2 := net.NewHost("h2")
	net.Connect(h1, h2, LinkConfig{Rate: 10 * Gbps, Delay: sim.Microsecond})
	net.ComputeRoutes()
	k := &benchSink{}
	h2.Register(1, k)
	// Refill the queue as it drains so the port never idles, without ever
	// queueing more than a small batch (bounded memory at any b.N).
	const batch = 64
	var left int
	feed := func() {
		for i := 0; i < batch && left > 0; i, left = i+1, left-1 {
			p := net.NewPacket()
			p.Flow, p.Src, p.Dst, p.Payload = 1, h1.ID(), h2.ID(), MSS
			h1.Send(p)
		}
	}
	var refill func()
	refill = func() {
		feed()
		if left > 0 {
			s.After(batch*h1.NIC().Rate.TxTime(MSS+HeaderBytes+WireOverheadBytes), refill)
		}
	}
	// An untimed settle of a few batches grows the pools and the ring to
	// their working set before the clock starts.
	left = 4 * batch
	s.At(0, refill)
	s.Run()
	k.got, left = 0, b.N
	hops0 := pktHops(net)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	s.At(s.Now(), refill)
	s.Run()
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if k.got != int64(b.N)*MSS {
		b.Fatalf("delivered %d bytes, want %d", k.got, int64(b.N)*MSS)
	}
	reportPerHop(b, ms1.Mallocs-ms0.Mallocs, pktHops(net)-hops0)
}

// burster fires one sender's synchronized window. Pre-built once per
// sender and scheduled as an EventTarget, so burst arrival costs no
// closure allocations (the residual 64 allocs/op of the closure-based
// version).
type burster struct {
	net *Network
	h   *Host
	dst NodeID
}

// RunEvent implements sim.EventTarget.
func (bu *burster) RunEvent() {
	for j := 0; j < 8; j++ {
		p := bu.net.NewPacket()
		p.Flow, p.Src, p.Dst, p.Payload = 1, bu.h.ID(), bu.dst, MSS
		bu.h.Send(p)
	}
}

// BenchmarkIncastBurst replays the paper's stress shape at the raw packet
// level: many senders burst simultaneously into one switch port with a
// finite buffer, the case where a slice-shift FIFO used to degenerate to
// O(n²) per dequeue.
func BenchmarkIncastBurst(b *testing.B) {
	const senders = 64
	b.ReportAllocs()
	s := sim.New(1)
	net := NewNetwork(s)
	sw := net.NewSwitch("tor")
	dst := net.NewHost("recv")
	net.Connect(sw, dst, LinkConfig{Rate: 10 * Gbps, Delay: sim.Microsecond, BufA: 1 << 20})
	bursters := make([]burster, senders)
	for i := 0; i < senders; i++ {
		h := net.NewHost("h")
		net.Connect(h, sw, LinkConfig{Rate: 10 * Gbps, Delay: sim.Microsecond})
		bursters[i] = burster{net: net, h: h, dst: dst.ID()}
	}
	net.ComputeRoutes()
	k := &benchSink{}
	dst.Register(1, k)
	// One untimed burst grows the pools and port rings to their working set
	// before the clock starts.
	for j := range bursters {
		s.Schedule(s.Now(), &bursters[j])
	}
	s.Run()
	hops0 := pktHops(net)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One synchronized burst: every sender fires a window at t=now.
		for j := range bursters {
			s.Schedule(s.Now(), &bursters[j])
		}
		s.Run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	reportPerHop(b, ms1.Mallocs-ms0.Mallocs, pktHops(net)-hops0)
}

// benchFatTree wires a k-ary fat tree in exp.FatTree's creation order
// (cores; then per pod its aggregation switches, and its edge switches each
// followed by their hosts) without routing it, and returns one switch of
// every layer plus all hosts.
func benchFatTree(k int) (net *Network, layers [3]*Switch, hosts []*Host) {
	net = NewNetwork(sim.New(1))
	half := k / 2
	link := LinkConfig{Rate: Gbps, Delay: 5 * sim.Microsecond}
	cores := make([]*Switch, half*half)
	for i := range cores {
		cores[i] = net.NewSwitch("core")
	}
	for p := 0; p < k; p++ {
		aggs := make([]*Switch, half)
		for a := range aggs {
			aggs[a] = net.NewSwitch("agg")
			for c := 0; c < half; c++ {
				net.Connect(aggs[a], cores[a*half+c], link)
			}
		}
		for e := 0; e < half; e++ {
			edge := net.NewSwitch("edge")
			for _, agg := range aggs {
				net.Connect(edge, agg, link)
			}
			for h := 0; h < half; h++ {
				host := net.NewHost("h")
				net.Connect(host, edge, link)
				hosts = append(hosts, host)
			}
		}
	}
	edge := hosts[0].NIC().Peer.(*Switch)
	agg := edge.Ports()[0].Peer.(*Switch)
	return net, [3]*Switch{edge, agg, cores[0]}, hosts
}

// benchLeafSpine wires exp.LeafSpine's fabric (one spine, racks leaf
// switches each followed by its perRack hosts) without routing it.
func benchLeafSpine(racks, perRack int) *Network {
	net := NewNetwork(sim.New(1))
	link := LinkConfig{Rate: Gbps, Delay: 20 * sim.Microsecond}
	spine := net.NewSwitch("spine")
	for r := 0; r < racks; r++ {
		leaf := net.NewSwitch("leaf")
		net.Connect(leaf, spine, link)
		for j := 0; j < perRack; j++ {
			net.Connect(net.NewHost("h"), leaf, link)
		}
	}
	return net
}

// BenchmarkComputeRoutes times routing the two fabrics that pay for it: a
// built k=16 fat tree (1024 hosts, 320 switches) and the 18x20 leaf-spine
// of the web-search workload (360 hosts, 19 switches). It is the set-up
// every large-fabric trial pays once, and B/op is what its tables cost in
// memory.
func BenchmarkComputeRoutes(b *testing.B) {
	fattree, _, _ := benchFatTree(16)
	for _, c := range []struct {
		name string
		net  *Network
	}{
		{"fattree-k16", fattree},
		{"leafspine-18x20", benchLeafSpine(18, 20)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.net.ComputeRoutes()
			}
		})
	}
}

var benchPort *Port

// routeLookup is one destination mix of the per-hop route lookup on the
// k=16 fat tree: lookup i asks an edge, an aggregation and a core switch in
// turn for the way to host i&mask.
type routeLookup struct {
	name   string
	layers [3]*Switch
	hosts  []*Host
	mask   int
}

func (r *routeLookup) at(i int) *Port {
	return r.layers[i%3].PortFor(FlowID(i), r.hosts[i&r.mask].ID())
}

// routeLookupCases returns the two mixes that matter: one_dst asks for the
// same destination every time, many_dst walks all 1024 hosts (what a
// loaded fabric switch sees: forward and reverse routes of many flows
// interleaved).
func routeLookupCases() []routeLookup {
	net, layers, hosts := benchFatTree(16)
	net.ComputeRoutes()
	return []routeLookup{
		{"one_dst", layers, hosts, 0},
		{"many_dst", layers, hosts, len(hosts) - 1},
	}
}

// BenchmarkRouteLookup times the per-hop route lookup. The two mixes must
// cost the same, and neither may allocate (TestRouteLookupAllocs).
func BenchmarkRouteLookup(b *testing.B) {
	for _, bc := range routeLookupCases() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPort = bc.at(i)
			}
			if benchPort == nil {
				b.Fatal("no route")
			}
		})
	}
}

// TestRouteLookupAllocs is the benchmark's alloc budget as a tier-1 test:
// a route lookup allocates nothing, whatever the destination mix.
func TestRouteLookupAllocs(t *testing.T) {
	for _, bc := range routeLookupCases() {
		t.Run(bc.name, func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(3*1024, func() {
				benchPort = bc.at(i)
				i++
			})
			if allocs != 0 || benchPort == nil {
				t.Errorf("%.2f allocs per lookup (last port %v), want 0 and a route", allocs, benchPort)
			}
		})
	}
}
