package netsim_test

import (
	"testing"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
	"tfcsim/internal/workload"
)

// greedy dials src -> dst and keeps the connection's send queue topped up.
func greedy(e *exp.Env, src, dst *netsim.Host) {
	var c *workload.Conn
	c = e.Dialer.Dial(src, dst, func() { c.Sender.Send(256 << 10) }, nil)
	e.Sim.At(0, func() {
		c.Sender.Open()
		c.Sender.Send(256 << 10)
	})
}

// TestPoolDiscipline runs every registered transport with the pool-misuse
// detector armed — a packet enqueued, delivered or released after its
// release panics — through the three places packets are held longest: an
// incast pile-up, a link-down fault cell (a downed link keeps its queue)
// and a sharded fat tree, where packets are allocated on one shard and
// released on another.
func TestPoolDiscipline(t *testing.T) {
	defer netsim.ArmPoolCheck()()
	for _, name := range transport.Names() {
		topo := exp.TopoConfig{Proto: exp.Proto(name), Seed: 1}
		t.Run(name+"/incast", func(t *testing.T) {
			pt := exp.Incast(exp.IncastConfig{TopoConfig: topo, Senders: 24, Rounds: 3})
			if pt.Rounds != 3 {
				t.Fatalf("%d of 3 incast rounds completed", pt.Rounds)
			}
		})
		t.Run(name+"/faults", func(t *testing.T) {
			e, senders, recv, bott := exp.Star(topo, 8, exp.TestbedRate, exp.TestbedBuf)
			for _, h := range senders {
				greedy(e, h, recv)
			}
			cut := func(at, dur sim.Time, ports ...*netsim.Port) {
				for _, p := range ports {
					e.Sim.At(at, p.SetDown)
					e.Sim.At(at+dur, p.SetUp)
				}
			}
			cut(20*sim.Millisecond, 5*sim.Millisecond, bott, recv.NIC())
			cut(60*sim.Millisecond, sim.Millisecond, bott)
			e.Sim.RunUntil(300 * sim.Millisecond)
			if bott.Drops == 0 {
				t.Error("no drop at the downed bottleneck: the fault cell held nothing")
			}
			checkPools(t, e.Net)
		})
		t.Run(name+"/fattree-shards2", func(t *testing.T) {
			topo := topo
			topo.Shards = 2
			ft := exp.FatTree(topo, 4, exp.TestbedRate, exp.TestbedBuf)
			if ft.Net.Shards() != 2 {
				t.Fatalf("fat tree runs on %d shards, want 2", ft.Net.Shards())
			}
			for p, hosts := range ft.PodHosts {
				for i, src := range hosts {
					greedy(ft.Env, src, ft.PodHosts[(p+1)%ft.K][i])
				}
			}
			// Long enough for a one-way migration to show: credit moves ~900
			// delivery carriers a simulated second into shard 0.
			ft.Sim.RunUntil(250 * sim.Millisecond)
			checkPools(t, ft.Net)
		})
	}
}

// checkPools asserts that no shard's free list outgrew what the shard
// itself ever needed: its peak live population plus the slab a pool miss
// adds. Pools migrate capacity (a packet is released where it is consumed,
// not where it was allocated), so a shard that consumed more than it
// originated would otherwise ratchet its free list up for the whole run.
// The delivery carriers migrate with the packets and answer to the same
// bound: a shard never has more deliveries in flight than packets it owns.
func checkPools(t *testing.T, n *netsim.Network) {
	t.Helper()
	for i, sh := range n.PoolShards() {
		t.Logf("shard %d: free %d, live %d, peak live %d, free carriers %d", i, sh.Free, sh.Live, sh.PeakLive, sh.FreeRx)
		if sh.Live < 0 {
			t.Errorf("shard %d: live packet count %d", i, sh.Live)
		}
		if sh.Live+sh.Free > sh.PeakLive+netsim.PktSlab {
			t.Errorf("shard %d: %d live + %d free packets, want <= peak live %d + slab %d",
				i, sh.Live, sh.Free, sh.PeakLive, netsim.PktSlab)
		}
		if sh.FreeRx > sh.PeakLive+netsim.PktSlab+1 {
			t.Errorf("shard %d: %d free delivery carriers, want <= peak live %d + slab %d + 1",
				i, sh.FreeRx, sh.PeakLive, netsim.PktSlab)
		}
	}
}

// TestPoolCheckCatchesMisuse shows the detector TestPoolDiscipline relies
// on fires: a packet kept past Deliver and sent again, and a packet
// released twice, both panic.
func TestPoolCheckCatchesMisuse(t *testing.T) {
	defer netsim.ArmPoolCheck()()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	s, h1, h2, _, _ := line(1, nil)
	var kept *netsim.Packet
	h2.Register(2, keep{&kept})
	p := h1.NewPacket()
	*p = netsim.Packet{Flow: 2, Src: h1.ID(), Dst: h2.ID(), Payload: 100}
	h1.Send(p)
	s.Run()
	if kept != p {
		t.Fatal("packet was not delivered")
	}
	mustPanic("sending a packet kept past Deliver", func() { h1.NIC().Enqueue(kept) })
	mustPanic("releasing a packet twice", func() { h1.NIC().ReleasePacket(kept) })
}

type keep struct{ p **netsim.Packet }

func (k keep) Deliver(p *netsim.Packet) { *k.p = p }
