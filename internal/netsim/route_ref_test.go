package netsim_test

// An independent routing oracle (ROADMAP aim 3). referenceRoutes is the
// map-based all-pairs-BFS routing the simulator shipped before the dense
// per-switch tables: it shares no code with Network.ComputeRoutes (one BFS
// per source into an N×N distance table, a map per switch) and sees the
// network only through its public surface. Every topology the experiments
// build, plus the edge cases a table keyed by NodeID can get wrong, is
// diffed against it for every (switch, destination): same ports, same
// order.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tfcsim/internal/exp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// referenceRoutes returns, per switch, the equal-cost next-hop ports toward
// every reachable destination, in port creation order.
func referenceRoutes(n *netsim.Network) map[*netsim.Switch]map[netsim.NodeID][]*netsim.Port {
	const inf = int(^uint(0) >> 1)
	nodes := n.Nodes()
	dist := make(map[netsim.NodeID][]int, len(nodes))
	for _, src := range nodes {
		d := make([]int, len(nodes))
		for i := range d {
			d[i] = inf
		}
		d[src.ID()] = 0
		frontier := []netsim.Node{src}
		for len(frontier) > 0 {
			var next []netsim.Node
			for _, u := range frontier {
				for _, p := range u.Ports() {
					v := p.Peer
					if d[v.ID()] == inf {
						d[v.ID()] = d[u.ID()] + 1
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		dist[src.ID()] = d
	}
	routes := make(map[*netsim.Switch]map[netsim.NodeID][]*netsim.Port)
	for _, node := range nodes {
		sw, ok := node.(*netsim.Switch)
		if !ok {
			continue
		}
		routes[sw] = make(map[netsim.NodeID][]*netsim.Port, len(nodes))
		for _, dst := range nodes {
			if dst.ID() == sw.ID() {
				continue
			}
			d := dist[sw.ID()][dst.ID()]
			if d == inf {
				continue
			}
			var ports []*netsim.Port
			for _, p := range sw.Ports() {
				if dist[p.Peer.ID()][dst.ID()] == d-1 {
					ports = append(ports, p)
				}
			}
			routes[sw][dst.ID()] = ports
		}
	}
	return routes
}

// flowsChecked is how many flow IDs PortFor is tried with per (switch,
// destination); TestECMPFlowConsistency covers the spreading itself.
const flowsChecked = 4

// checkAgainstReference diffs the installed tables against the oracle for
// every (switch, destination), and checks the lookups derived from a port
// set (PortTo = first, PortFor = a member of the set, stable per flow).
func checkAgainstReference(t *testing.T, n *netsim.Network) {
	t.Helper()
	ref := referenceRoutes(n)
	bad := 0
	for _, node := range n.Nodes() {
		sw, ok := node.(*netsim.Switch)
		if !ok {
			continue
		}
		for _, dst := range n.Nodes() {
			want := ref[sw][dst.ID()]
			got := sw.PortsTo(dst.ID())
			if !slices.Equal(got, want) {
				if bad++; bad <= 5 {
					t.Errorf("%s -> %s: PortsTo = %s, reference %s", sw.Name(), dst.Name(), labels(got), labels(want))
				}
				continue
			}
			if len(want) == 0 {
				if got != nil || sw.PortTo(dst.ID()) != nil || sw.PortFor(1, dst.ID()) != nil {
					t.Errorf("%s -> %s: unreachable, but a lookup is non-nil", sw.Name(), dst.Name())
				}
				continue
			}
			if sw.PortTo(dst.ID()) != want[0] {
				t.Errorf("%s -> %s: PortTo is not the first equal-cost port", sw.Name(), dst.Name())
			}
			for f := netsim.FlowID(1); f <= flowsChecked; f++ {
				p := sw.PortFor(f, dst.ID())
				if !slices.Contains(want, p) || sw.PortFor(f, dst.ID()) != p {
					t.Errorf("%s -> %s: PortFor(%d) outside the equal-cost set or unstable", sw.Name(), dst.Name(), f)
				}
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more (switch, destination) pairs differ", bad-5)
	}
}

func labels(ports []*netsim.Port) string {
	if ports == nil {
		return "nil"
	}
	s := make([]string, len(ports))
	for i, p := range ports {
		s[i] = p.Label
	}
	return fmt.Sprint(s)
}

var refLink = netsim.LinkConfig{Rate: netsim.Gbps, Delay: sim.Microsecond}

// dumbbell is h1 - sw - h2.
func dumbbell() *netsim.Network {
	n := netsim.NewNetwork(sim.New(1))
	h1, sw, h2 := n.NewHost("h1"), n.NewSwitch("sw"), n.NewHost("h2")
	n.Connect(h1, sw, refLink)
	n.Connect(sw, h2, refLink)
	n.ComputeRoutes()
	return n
}

// diamond is h1 - s1 - {a, b} - s2 - h2 (two equal-cost paths) with a
// doubled a - s2 cable, so one equal-cost set holds two ports to one peer.
func diamond() *netsim.Network {
	n := netsim.NewNetwork(sim.New(1))
	h1, h2 := n.NewHost("h1"), n.NewHost("h2")
	s1, s2, a, b := n.NewSwitch("s1"), n.NewSwitch("s2"), n.NewSwitch("a"), n.NewSwitch("b")
	n.Connect(h1, s1, refLink)
	n.Connect(s1, a, refLink)
	n.Connect(s1, b, refLink)
	n.Connect(a, s2, refLink)
	n.Connect(b, s2, refLink)
	n.Connect(a, s2, refLink)
	n.Connect(s2, h2, refLink)
	n.ComputeRoutes()
	return n
}

func TestRoutesMatchReference(t *testing.T) {
	tcp := exp.TopoConfig{Proto: exp.TCP}
	star, _, _, _ := exp.Star(tcp, 40, netsim.Gbps, 64<<10)
	topos := []struct {
		name string
		net  *netsim.Network
	}{
		{"dumbbell", dumbbell()},
		{"ecmp-diamond", diamond()},
		{"star-40", star.Net},
		{"testbed", exp.Testbed(tcp).Net},
		{"multi-bottleneck", exp.MultiBottleneck(tcp).Net},
		{"leafspine-4x4", exp.LeafSpine(tcp, 4, 4, 64<<10).Net},
		{"leafspine-18x20", exp.LeafSpine(tcp, 18, 20, 64<<10).Net},
		{"fattree-k4", exp.FatTree(tcp, 4, netsim.Gbps, 64<<10).Net},
		{"fattree-k8", exp.FatTree(tcp, 8, netsim.Gbps, 64<<10).Net},
	}
	for _, tp := range topos {
		t.Run(tp.name, func(t *testing.T) { checkAgainstReference(t, tp.net) })
	}
	t.Run("fattree-k16", func(t *testing.T) {
		if testing.Short() {
			t.Skip("430 k (switch, destination) pairs")
		}
		checkAgainstReference(t, exp.FatTree(tcp, 16, netsim.Gbps, 64<<10).Net)
	})
}

// ComputeRoutes searches only from nodes that are not leaves (a host whose
// one port leads to a switch) and copies the edge switch's routes for the
// leaves. Each topology here takes a different branch of that test; the
// comment says which hosts are not leaves.
func TestRoutesHostShapes(t *testing.T) {
	topos := []struct {
		name  string
		build func(n *netsim.Network)
	}{
		{"double-cabled", func(n *netsim.Network) {
			// h is cabled twice to sw: two equal-cost ports, not a leaf.
			h, sw, s2, g := n.NewHost("h"), n.NewSwitch("sw"), n.NewSwitch("s2"), n.NewHost("g")
			n.Connect(h, sw, refLink)
			n.Connect(sw, s2, refLink)
			n.Connect(h, sw, refLink)
			n.Connect(s2, g, refLink)
		}},
		{"multi-homed", func(n *netsim.Network) {
			// h sits on s1 and s2, which have no other path between them:
			// h is the only transit from g1 to g2.
			s1, s2 := n.NewSwitch("s1"), n.NewSwitch("s2")
			g1, h, g2 := n.NewHost("g1"), n.NewHost("h"), n.NewHost("g2")
			n.Connect(g1, s1, refLink)
			n.Connect(s1, h, refLink)
			n.Connect(h, s2, refLink)
			n.Connect(s2, g2, refLink)
		}},
		{"host-pair", func(n *netsim.Network) {
			// h1 and h2 are cabled only to each other; sw is elsewhere.
			h1, h2 := n.NewHost("h1"), n.NewHost("h2")
			sw, g := n.NewSwitch("sw"), n.NewHost("g")
			n.Connect(h1, h2, refLink)
			n.Connect(g, sw, refLink)
		}},
		{"host-behind-host", func(n *netsim.Network) {
			// h1's one port leads to a host, and h2 relays for it.
			h1, h2 := n.NewHost("h1"), n.NewHost("h2")
			sw, s2, g := n.NewSwitch("sw"), n.NewSwitch("s2"), n.NewHost("g")
			n.Connect(h1, h2, refLink)
			n.Connect(h2, sw, refLink)
			n.Connect(sw, s2, refLink)
			n.Connect(s2, g, refLink)
		}},
		{"isolated-host", func(n *netsim.Network) {
			// lone has no port at all.
			g1, sw := n.NewHost("g1"), n.NewSwitch("sw")
			n.NewHost("lone")
			g2 := n.NewHost("g2")
			n.Connect(g1, sw, refLink)
			n.Connect(sw, g2, refLink)
		}},
		{"bare-edge", func(n *netsim.Network) {
			// A leaf whose edge switch has no other link, beside a routed
			// island.
			h, edge := n.NewHost("h"), n.NewSwitch("edge")
			g1, sw, g2 := n.NewHost("g1"), n.NewSwitch("sw"), n.NewHost("g2")
			n.Connect(h, edge, refLink)
			n.Connect(g1, sw, refLink)
			n.Connect(sw, g2, refLink)
		}},
	}
	for _, tp := range topos {
		t.Run(tp.name, func(t *testing.T) {
			n := netsim.NewNetwork(sim.New(1))
			tp.build(n)
			n.ComputeRoutes()
			checkAgainstReference(t, n)
		})
	}
}

// FuzzComputeRoutes diffs random networks against the oracle: a random,
// possibly disconnected mesh of switches (parallel cables and self-loops
// included), and hosts with 0–2 cables each to random switches or earlier
// hosts, so leaves, multi-homed, double-cabled and isolated hosts and host
// chains all mix.
func FuzzComputeRoutes(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := netsim.NewNetwork(sim.New(1))
		switches := make([]*netsim.Switch, 1+rng.Intn(6))
		for i := range switches {
			switches[i] = n.NewSwitch(fmt.Sprint("s", i))
		}
		for range rng.Intn(2 * len(switches)) {
			n.Connect(switches[rng.Intn(len(switches))], switches[rng.Intn(len(switches))], refLink)
		}
		var hosts []*netsim.Host
		for i := range 1 + rng.Intn(10) {
			h := n.NewHost(fmt.Sprint("h", i))
			for range rng.Intn(3) {
				if len(hosts) > 0 && rng.Intn(4) == 0 {
					n.Connect(h, hosts[rng.Intn(len(hosts))], refLink)
				} else {
					n.Connect(h, switches[rng.Intn(len(switches))], refLink)
				}
			}
			hosts = append(hosts, h)
		}
		n.ComputeRoutes()
		checkAgainstReference(t, n)
	})
}

// Two islands: nothing routes across, the lookups say so with nil, and a
// packet sent across anyway is dropped at the first switch, charged to the
// port it arrived over.
func TestRoutesDisconnected(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNetwork(s)
	h1, sw1 := n.NewHost("h1"), n.NewSwitch("sw1")
	h2, sw2 := n.NewHost("h2"), n.NewSwitch("sw2")
	lone := n.NewSwitch("lone")
	n.Connect(h1, sw1, refLink)
	n.Connect(h2, sw2, refLink)
	n.ComputeRoutes()
	checkAgainstReference(t, n)
	if sw1.PortsTo(h2.ID()) != nil || sw1.PortsTo(lone.ID()) != nil || lone.PortsTo(h1.ID()) != nil {
		t.Fatal("a route crosses between disconnected islands")
	}
	if sw1.PortTo(h1.ID()) == nil || sw2.PortTo(h2.ID()) == nil {
		t.Fatal("routes inside an island are missing")
	}
	rec := newRecorder(t, new([netsim.NumEventKinds]bool))
	n.Probe = rec
	h1.Send(&netsim.Packet{Flow: 1, Src: h1.ID(), Dst: h2.ID(), Payload: 10})
	s.Run()
	var drops []string
	for _, ev := range rec.evs {
		if ev.Kind == netsim.EvDrop {
			drops = append(drops, ev.Where())
		}
	}
	if len(drops) != 1 || drops[0] != "h1->sw1" {
		t.Fatalf("drops at %v, want one at h1->sw1", drops)
	}
}

// A network that grows after it was routed: until ComputeRoutes runs again
// the new node's ID lies beyond every table and must read as "no route";
// the second call must refresh every switch, including port sets that
// only widened (s1 gains a second equal-cost path to h2).
func TestRoutesRefreshAfterGrowth(t *testing.T) {
	n := netsim.NewNetwork(sim.New(1))
	h1, h2 := n.NewHost("h1"), n.NewHost("h2")
	s1, s2, a := n.NewSwitch("s1"), n.NewSwitch("s2"), n.NewSwitch("a")
	n.Connect(h1, s1, refLink)
	n.Connect(s1, a, refLink)
	n.Connect(a, s2, refLink)
	n.Connect(s2, h2, refLink)
	n.ComputeRoutes()
	checkAgainstReference(t, n)
	before := s1.PortsTo(h2.ID())

	b := n.NewSwitch("b")
	h3 := n.NewHost("h3")
	n.Connect(s1, b, refLink)
	n.Connect(b, s2, refLink)
	n.Connect(h3, b, refLink)
	for _, sw := range []*netsim.Switch{s1, s2, a, b} {
		if sw.PortsTo(h3.ID()) != nil || sw.PortTo(h3.ID()) != nil || sw.PortFor(1, h3.ID()) != nil {
			t.Fatalf("%s routes to a host added after ComputeRoutes", sw.Name())
		}
	}
	if got := s1.PortsTo(h2.ID()); !slices.Equal(got, before) {
		t.Fatal("routes changed without a ComputeRoutes call")
	}

	n.ComputeRoutes()
	checkAgainstReference(t, n)
	if got := len(s1.PortsTo(h2.ID())); got != 2 {
		t.Fatalf("s1 has %d equal-cost ports to h2 after the refresh, want 2", got)
	}
	if len(before) != 1 {
		t.Fatal("a port set handed out earlier was modified by the refresh")
	}
	if s1.PortTo(h3.ID()) == nil {
		t.Fatal("no route to the new host after the refresh")
	}

	// A second cable makes h3 multi-homed: it is no longer a leaf, and a
	// now reaches it directly instead of through b's copied routes.
	n.Connect(h3, a, refLink)
	n.ComputeRoutes()
	checkAgainstReference(t, n)
	if got := a.PortTo(h3.ID()); got == nil || got.Peer != h3 {
		t.Fatal("a does not reach the multi-homed h3 over its own cable")
	}
}

// NodeIDs no table row exists for: negative, one past the end, huge; on a
// routed switch and on one ComputeRoutes never saw.
func TestRouteLookupOutOfRange(t *testing.T) {
	n := dumbbell()
	routed := n.Nodes()[1].(*netsim.Switch)
	unrouted := n.NewSwitch("late")
	ids := []netsim.NodeID{-1, math.MinInt32, netsim.NodeID(len(n.Nodes())), math.MaxInt32}
	for _, sw := range []*netsim.Switch{routed, unrouted} {
		for _, id := range append(ids, unrouted.ID(), sw.ID()) {
			if sw.PortsTo(id) != nil || sw.PortTo(id) != nil || sw.PortFor(7, id) != nil {
				t.Errorf("%s: lookup of NodeID %d is non-nil", sw.Name(), id)
			}
		}
	}
	if unrouted.PortTo(0) != nil {
		t.Error("a switch added after ComputeRoutes has a route")
	}
}
