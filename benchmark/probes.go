package main

import (
	"math/rand"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Probes are small drivers that call one layer directly, so a change to
// that layer can be read apart from everything above it. They run on the
// traced pass of every workload, each for sizes.probe events or
// packet-hops: well under a second.

// ticker reschedules itself a constant delay ahead: the lane fast path.
type ticker struct {
	s     *sim.Simulator
	delay sim.Time
}

func (t *ticker) RunEvent() { t.s.ScheduleAfter(t.delay, t) }

// probeLane returns ns per event for self-rescheduling EventTargets with
// one constant delay (FIFO lane push/pop, no heap sift).
func probeLane(n int) float64 {
	s := sim.New(1)
	for i := 0; i < 64; i++ {
		t := &ticker{s: s, delay: sim.Microsecond}
		s.ScheduleAfter(sim.Time(i+1), t)
	}
	return nsPerEvent(s, n)
}

// jumper reschedules itself at a seeded random absolute time: the 4-ary
// heap path, with n/16 events pending.
type jumper struct {
	s *sim.Simulator
	r *rand.Rand
}

func (j *jumper) RunEvent() {
	j.s.Schedule(j.s.Now()+1+sim.Time(j.r.Int63n(int64(sim.Millisecond))), j)
}

func probeHeap(n int) float64 {
	s := sim.New(1)
	for i := 0; i < n/16; i++ {
		j := &jumper{s: s, r: s.Rand}
		j.RunEvent()
	}
	return nsPerEvent(s, n)
}

// nsPerEvent runs s for n events and returns the cost of one.
func nsPerEvent(s *sim.Simulator, n int) float64 {
	step := sim.Microsecond
	t0 := nowNs()
	for s.Executed() < uint64(n) {
		s.RunUntil(s.Now() + step)
		step *= 2
	}
	return float64(nowNs()-t0) / float64(s.Executed())
}

// rearmer is the RTO pattern: every tick cancels the pending far-off
// timer and arms a new one, so almost no armed timer ever fires.
type rearmer struct {
	s     *sim.Simulator
	timer sim.Timer
	idle  ticker // target of the timers that (almost) never fire
	n     int
}

func (a *rearmer) RunEvent() {
	a.timer.Stop()
	a.timer = a.s.ScheduleAfter(200*sim.Microsecond, &a.idle)
	a.n++
	a.s.ScheduleAfter(sim.Microsecond, a)
}

// probeTimerArmStop returns ns per arm + Stop, including the tick event
// that drives it and the collection of the cancelled node.
func probeTimerArmStop(n int) float64 {
	s := sim.New(1)
	a := &rearmer{s: s}
	a.idle = ticker{s: s, delay: sim.Second}
	s.ScheduleAfter(1, a)
	t0 := nowNs()
	s.RunUntil(sim.Time(n) * sim.Microsecond)
	return float64(nowNs()-t0) / float64(a.n)
}

// sink consumes raw packets; the host releases them.
type sink struct{}

func (sink) Deliver(*netsim.Packet) {}

// source sends raw MSS packets from one host at line rate, rotating over
// dsts.
type source struct {
	h    *netsim.Host
	flow netsim.FlowID
	dsts []netsim.NodeID
	next int
	gap  sim.Time
}

func (c *source) RunEvent() {
	pkt := c.h.NewPacket()
	pkt.Flow, pkt.Src, pkt.Dst, pkt.Payload = c.flow, c.h.ID(), c.dsts[c.next], netsim.MSS
	c.next++
	if c.next == len(c.dsts) {
		c.next = 0
	}
	c.h.Send(pkt)
	c.h.Sim().ScheduleAfter(c.gap, c)
}

// nsPerHop runs the network until n packet-hops were made.
func nsPerHop(s *sim.Simulator, net *netsim.Network, n int) float64 {
	hops := func() (n int64) {
		for _, node := range net.Nodes() {
			for _, p := range node.Ports() {
				n += p.TxPackets
			}
		}
		return n
	}
	t0 := nowNs()
	for hops() < int64(n) {
		s.RunUntil(s.Now() + 200*sim.Microsecond)
	}
	return float64(nowNs()-t0) / float64(hops())
}

// probeForwardOneDst forwards raw packets down a chain of five switches
// to a single destination: every switch's route cache always hits.
func probeForwardOneDst(n int) float64 {
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	net.PoolPackets = true
	link := netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: sim.Microsecond}
	h1, h2 := net.NewHost("h1"), net.NewHost("h2")
	var prev netsim.Node = h1
	for i := 0; i < 5; i++ {
		sw := net.NewSwitch("sw")
		net.Connect(prev, sw, link)
		prev = sw
	}
	net.Connect(prev, h2, link)
	net.ComputeRoutes()
	h2.Register(1, sink{})
	src := &source{h: h1, flow: 1, dsts: []netsim.NodeID{h2.ID()},
		gap: link.Rate.TxTime(netsim.MSS + netsim.HeaderBytes + netsim.WireOverheadBytes)}
	s.ScheduleAfter(1, src)
	return nsPerHop(s, net, n)
}

// probeForwardManyDst forwards raw packets across the k=16 fat tree from
// one host per pod, each rotating over all 1024 hosts: every lookup
// misses the one-entry route cache and the working set is the whole
// fabric. The gap to the one-destination figure is the route-lookup and
// locality tax.
func probeForwardManyDst(k, n int) float64 {
	ft := exp.FatTree(exp.TopoConfig{Proto: exp.TCP, Seed: 1}, k, netsim.Gbps, exp.TestbedBuf)
	var all []netsim.NodeID
	for _, h := range ft.Hosts {
		all = append(all, h.ID())
	}
	gap := netsim.Gbps.TxTime(netsim.MSS + netsim.HeaderBytes + netsim.WireOverheadBytes)
	for p, hosts := range ft.PodHosts {
		flow := netsim.FlowID(p + 1)
		for _, h := range ft.Hosts {
			h.Register(flow, sink{})
		}
		src := &source{h: hosts[0], flow: flow, dsts: all, next: p * len(hosts), gap: gap}
		ft.Sim.ScheduleAfter(sim.Time(p+1), src)
	}
	return nsPerHop(ft.Sim, ft.Net, n)
}

// runProbes fills in the probe metrics.
func runProbes(m map[string]float64, sz *sizes) {
	m["sim.probe.lane_ns_per_event"] = probeLane(sz.probe)
	m["sim.probe.heap_ns_per_event"] = probeHeap(sz.probe)
	m["sim.probe.timer_arm_stop_ns"] = probeTimerArmStop(sz.probe)
	m["netsim.probe.forward_ns_per_hop.one_dst"] = probeForwardOneDst(sz.probe)
	m["netsim.probe.forward_ns_per_hop.many_dst"] = probeForwardManyDst(sz.fatK, sz.probe)
}
