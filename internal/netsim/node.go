package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"tfcsim/internal/sim"
)

// Node is a device attached to the network: a Host or a Switch.
type Node interface {
	ID() NodeID
	Name() string
	// Receive is invoked when a packet fully arrives over the link whose
	// transmit side is from (store-and-forward semantics).
	Receive(pkt *Packet, from *Port)
	// Ports returns the node's transmit ports in creation order.
	Ports() []*Port
	// Sim returns the simulator driving this node: the network's
	// simulator, or the node's shard simulator once partitioned. All of a
	// node's events (and its transports') must be scheduled through it.
	Sim() *sim.Simulator
	addPort(p *Port)
	setShard(sh *netShard)
}

type nodeBase struct {
	id    NodeID
	name  string
	ports []*Port
	net   *Network
	sh    *netShard
}

func (n *nodeBase) ID() NodeID            { return n.id }
func (n *nodeBase) Name() string          { return n.name }
func (n *nodeBase) Ports() []*Port        { return n.ports }
func (n *nodeBase) Sim() *sim.Simulator   { return n.sh.sim }
func (n *nodeBase) addPort(p *Port)       { p.pos = len(n.ports); n.ports = append(n.ports, p) }
func (n *nodeBase) setShard(sh *netShard) { n.sh = sh }

// Interceptor lets a scheme take over forwarding of selected packets at a
// switch. TFC uses this for its ACK delay arbiter (paper §4.6): RMA ACKs
// whose window is below one MSS are held at the switch until the
// token-bucket counter of the corresponding data-direction port covers a
// full segment.
type Interceptor interface {
	// Intercept is called before pkt is queued on out. Returning true means
	// the interceptor took ownership (it will enqueue pkt later itself).
	Intercept(pkt *Packet, out *Port, sw *Switch) bool
}

// Switch is a store-and-forward output-queued switch with static routes.
// Destinations reachable over several equal-cost ports are load-balanced
// with flow-consistent (ECMP-style) hashing, so a flow's path — and with
// it TFC's per-port window assignment — stays stable.
type Switch struct {
	nodeBase
	// Route table, installed by Network.ComputeRoutes: routeIdx[dst] indexes
	// routeSets, this switch's distinct equal-cost port sets (many
	// destinations share one; routeSets[0] is the empty "no route" set). A
	// lookup is a bounds check and two loads whatever the destination mix.
	routeIdx  []uint16
	routeSets [][]*Port
	// Interceptor, if non-nil, may defer forwarding of selected packets.
	Interceptor Interceptor
}

// Receive forwards the packet toward its destination. A packet with no
// route is dropped at from, the port it arrived over (for a packet the
// switch originates, one of its own ports). In a partitioned network from
// may run on another shard, so a switch there must route every
// destination it receives.
func (sw *Switch) Receive(pkt *Packet, from *Port) {
	out := sw.PortFor(pkt.Flow, pkt.Dst)
	if out == nil {
		from.ReleasePacket(pkt)
		return
	}
	if sw.Interceptor != nil && sw.Interceptor.Intercept(pkt, out, sw) {
		return
	}
	out.Enqueue(pkt)
}

// flowHash mixes a flow ID into a well-distributed value (SplitMix64
// finalizer).
func flowHash(f FlowID) uint64 {
	x := uint64(f) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PortsTo returns all equal-cost transmit ports toward dst, in creation
// order; nil if dst is unreachable or unknown to the last ComputeRoutes.
// The slice is shared by every destination with the same port set:
// callers must not modify it.
func (sw *Switch) PortsTo(dst NodeID) []*Port {
	if uint(dst) >= uint(len(sw.routeIdx)) {
		return nil
	}
	return sw.routeSets[sw.routeIdx[dst]]
}

// PortTo returns the first (lowest-index) transmit port used to reach
// dst, or nil. With ECMP, PortFor gives the flow-specific choice.
func (sw *Switch) PortTo(dst NodeID) *Port {
	if ports := sw.PortsTo(dst); len(ports) > 0 {
		return ports[0]
	}
	return nil
}

// PortFor returns the (flow-consistent) port a given flow toward dst
// uses, or nil.
func (sw *Switch) PortFor(flow FlowID, dst NodeID) *Port {
	ports := sw.PortsTo(dst)
	switch len(ports) {
	case 0:
		return nil
	case 1:
		return ports[0]
	}
	return ports[flowHash(flow)%uint64(len(ports))]
}

// maxRouteSets is the number of distinct port sets (the empty one
// included) a switch's uint16 route index can address.
const maxRouteSets = 1 << 16

// internRouteSet returns the routeSets index of ports, appending a copy
// the first time a set is seen.
func (sw *Switch) internRouteSet(ports []*Port) uint16 {
	for i, set := range sw.routeSets {
		if slices.Equal(set, ports) {
			return uint16(i)
		}
	}
	if len(sw.routeSets) == maxRouteSets {
		panic(fmt.Sprintf("netsim: switch %s needs more than %d distinct route port sets", sw.name, maxRouteSets))
	}
	sw.routeSets = append(sw.routeSets, slices.Clone(ports))
	return uint16(len(sw.routeSets) - 1)
}

// Endpoint consumes packets addressed to a flow at a host.
type Endpoint interface {
	Deliver(pkt *Packet)
}

// Host is an end system with a single NIC. Transport endpoints register by
// FlowID; a transport binds both ends of a flow when it dials.
type Host struct {
	nodeBase
	endpoints map[FlowID]Endpoint
	// ProcJitter, when positive, adds a uniform [0, ProcJitter) host
	// processing delay to every transmitted packet, FIFO-preserving.
	// Real end hosts have this jitter, and TFC's rtt_b estimation relies
	// on it: the min-filter at switches needs occasional fast rounds to
	// observe the queueing-free RTT (paper §4.5 discusses exactly this).
	ProcJitter sim.Time
	procFree   sim.Time
	// jrand is the host's private jitter stream (see jitterRand): draws
	// depend only on this host's send sequence, never on how sends from
	// different hosts interleave, so sequential and sharded runs see the
	// same jitter.
	jrand *rand.Rand
}

// NIC returns the host's single transmit port (nil before it is wired).
func (h *Host) NIC() *Port {
	if len(h.ports) == 0 {
		return nil
	}
	return h.ports[0]
}

// NewPacket returns a zeroed packet from the host's shard pool (see
// Network.NewPacket). Transport endpoints attached to this host allocate
// their packets through it.
func (h *Host) NewPacket() *Packet { return h.sh.newPacket() }

// Network returns the network this host is attached to.
func (h *Host) Network() *Network { return h.net }

// Send transmits a packet out of the host NIC, after the host's
// (randomized) processing delay. The jitter models interrupt/wakeup
// latency, so it applies only when the NIC pipeline is idle: a line-rate
// stream is not throttled (packets ride the busy pipeline), while
// window-limited senders pay a fresh random delay per packet — the
// variance TFC's switch-side rtt_b min-filter depends on (paper §4.5).
func (h *Host) Send(pkt *Packet) {
	s := h.sh.sim
	at := s.Now()
	if h.net.Probe != nil {
		h.observe(EvHostSend, pkt)
	}
	nic := h.NIC()
	if h.ProcJitter > 0 && h.procFree <= at && !nic.Busy() && nic.QueueLen() == 0 {
		// Capped exponential: mostly-small delays with occasional spikes
		// up to ProcJitter (interrupt-coalescing-like), so the mean RTT
		// inflation stays low while the variance the rtt_b min-filter
		// needs is preserved.
		j := sim.Time(h.jitterRand().ExpFloat64() * float64(h.ProcJitter) / 4)
		if j > h.ProcJitter {
			j = h.ProcJitter
		}
		at += j
	}
	if at < h.procFree {
		at = h.procFree // processing is FIFO: no reordering
	}
	h.procFree = at
	if at == s.Now() {
		nic.Enqueue(pkt)
		return
	}
	s.Schedule(at, h.sh.newHostSend(nic, pkt))
}

// Register binds an endpoint to a flow ID.
func (h *Host) Register(id FlowID, ep Endpoint) {
	h.endpoints[id] = ep
}

// Endpoint returns the endpoint bound to id, if any.
func (h *Host) Endpoint(id FlowID) Endpoint { return h.endpoints[id] }

// Receive demultiplexes to the flow endpoint.
func (h *Host) Receive(pkt *Packet, from *Port) {
	if poolCheck {
		checkLive(pkt, "delivered after release")
	}
	ep, ok := h.endpoints[pkt.Flow]
	if !ok {
		if h.net.Probe != nil {
			h.observe(EvStray, pkt)
		}
		h.sh.release(pkt)
		return
	}
	if h.net.Probe != nil {
		h.observe(EvDeliver, pkt)
	}
	ep.Deliver(pkt)
	// Delivery is the packet's release point: Deliver must consume the
	// packet synchronously (every in-tree endpoint does), so ownership
	// returns to the host's shard pool here.
	h.sh.release(pkt)
}

// Network is a collection of nodes plus the shared simulator and routing.
type Network struct {
	// Sim is the control simulator: experiments schedule their workload
	// arrivals, samplers, and fault events through it. For a sequential
	// network it also drives every entity; Partition rebinds entities to
	// per-shard simulators and Sim becomes the sim.Group control.
	Sim    *sim.Simulator
	nodes  []Node
	nextID NodeID
	// Probe, when set, receives every observation record the simulator
	// emits on this network — the forwarding path's and, through
	// Port.Network, the attached switch-side schemes'. The disabled path is
	// one nil-check per emit point.
	Probe Probe

	// PoolPackets is ignored: packets are always recycled — NewPacket draws
	// from a free list that release refills when a packet's single
	// ownership chain ends (delivery, drop, stray, or unroutable) — so
	// nothing may hold a *Packet past the Deliver/OnEnqueue/Intercept/
	// Observe call it was passed to; copy the fields instead. The field
	// remains only because benchmark/ assigns it.
	PoolPackets bool

	// shards hold the per-shard execution contexts (simulator + pools);
	// exactly one, driven by Sim, until Partition splits the network.
	shards   []*netShard
	group    *sim.Group
	baseSeed int64
	portSeq  uint64 // port creation counter: stable per-port identity
}

// pktSlab is the packet-pool growth quantum: a pool miss allocates one
// slab and free-lists the remainder, so a growing live population (e.g. a
// deepening queue) costs one allocation per 64 packets instead of one
// each.
const pktSlab = 64

// NewPacket returns a zeroed packet, recycled from a free list. Transports
// allocate through Host.NewPacket (or Port.NewPacket from switch-side
// hooks) so the packet comes from — and later returns to — the pool of the
// shard doing the work; this method serves shard 0 for sequential callers
// (tests, benchmarks).
func (n *Network) NewPacket() *Packet { return n.shards[0].newPacket() }

// portEvent is the pooled sim.EventTarget carrying a host send deferred by
// processing jitter (any number can be pending per NIC). The other two
// forwarding-path events are txEvent and rxEvent in port.go.
type portEvent struct {
	port *Port
	pkt  *Packet
}

// RunEvent implements sim.EventTarget. The event frees itself before
// acting so the callback chain can immediately reuse it. It runs — and
// recycles — on the port's shard, where it was allocated.
func (e *portEvent) RunEvent() {
	p, pkt := e.port, e.pkt
	e.port, e.pkt = nil, nil
	//tfcvet:allow hotalloc — free-list push: newHostSend popped with truncation, so this append reuses the retained capacity (amortized pool growth)
	p.sh.evFree = append(p.sh.evFree, e)
	p.Enqueue(pkt)
}

// NewNetwork creates an empty network on the given simulator.
func NewNetwork(s *sim.Simulator) *Network {
	n := &Network{Sim: s, baseSeed: s.Seed()}
	n.shards = []*netShard{{id: 0, sim: s, net: n}}
	return n
}

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []Node { return n.nodes }

// NumPorts returns how many ports the network has: every Port.Ordinal is
// below it.
func (n *Network) NumPorts() int { return int(n.portSeq) }

// NewHost adds a host.
func (n *Network) NewHost(name string) *Host {
	h := &Host{
		nodeBase:  nodeBase{id: n.nextID, name: name, net: n, sh: n.shards[0]},
		endpoints: make(map[FlowID]Endpoint),
	}
	n.nextID++
	n.nodes = append(n.nodes, h)
	return h
}

// NewSwitch adds a switch.
func (n *Network) NewSwitch(name string) *Switch {
	sw := &Switch{
		nodeBase: nodeBase{id: n.nextID, name: name, net: n, sh: n.shards[0]},
	}
	n.nextID++
	n.nodes = append(n.nodes, sw)
	return sw
}

// LinkConfig describes a full-duplex cable.
type LinkConfig struct {
	Rate  Rate
	Delay sim.Time
	// BufA is the queue capacity (bytes) of the a→b port at node a; BufB of
	// the b→a port at node b. Zero means unlimited (typical for host NICs,
	// whose senders are window-limited).
	BufA, BufB int
}

// Connect wires a full-duplex link between a and b, returning the two
// directional ports (a→b, b→a).
func (n *Network) Connect(a, b Node, cfg LinkConfig) (ab, ba *Port) {
	ab = &Port{
		sim: n.Sim, net: n, Owner: a, Peer: b, Rate: cfg.Rate, Delay: cfg.Delay,
		BufBytes: cfg.BufA, idx: n.portSeq,
		Label: fmt.Sprintf("%s->%s", a.Name(), b.Name()),
	}
	ba = &Port{
		sim: n.Sim, net: n, Owner: b, Peer: a, Rate: cfg.Rate, Delay: cfg.Delay,
		BufBytes: cfg.BufB, idx: n.portSeq + 1,
		Label: fmt.Sprintf("%s->%s", b.Name(), a.Name()),
	}
	n.portSeq += 2
	ab.sh, ab.peerSh = n.shards[0], n.shards[0]
	ba.sh, ba.peerSh = n.shards[0], n.shards[0]
	ab.txEv.p, ba.txEv.p = ab, ba
	a.addPort(ab)
	b.addPort(ba)
	return ab, ba
}

// ComputeRoutes installs next-hop route sets on every switch: for each
// destination, all ports on a shortest path qualify (equal-cost
// multipath); flows are spread over them with consistent hashing. Hosts
// need no routes — they have a single NIC. Deterministic: port sets keep
// creation order. Call it again after adding nodes or links.
//
// Links are full-duplex, so one BFS outward from each destination gives
// every node's hop distance to it, and a node's next hops are its ports
// whose peer is one hop closer — all of which are settled by the time the
// BFS expands that node. The distance slice and queue are reused across
// destinations: no all-pairs table is ever held.
//
// Most destinations are leaves: hosts whose only port leads to a switch
// (which then has exactly one port back). A leaf is reached only through
// its edge switch and is on no shortest path but its own, so it is neither
// searched from nor expanded: afterwards every other switch copies its
// route to the edge switch, and the edge switch routes over its one port
// to the leaf. Switches and any other host (multi-homed, double-cabled,
// cabled to a host, isolated) keep their own search.
func (n *Network) ComputeRoutes() {
	const unseen = math.MaxInt32
	leaf := make([]bool, len(n.nodes))
	for u, node := range n.nodes {
		if h, ok := node.(*Host); ok && len(h.ports) == 1 {
			_, leaf[u] = h.ports[0].Peer.(*Switch)
		}
	}
	// Flat adjacency without the leaves (a node's ID is its index in
	// n.nodes): node u's ports are adj[first[u]:first[u+1]], each with its
	// peer's ID alongside, so the searches below walk two small arrays
	// instead of chasing every Port and its Peer through the heap once per
	// destination. toLeaf holds each edge switch's port to a leaf.
	first := make([]int32, len(n.nodes)+1)
	var adj, toLeaf []*Port
	var peer []NodeID
	var switches []*Switch
	for u, node := range n.nodes {
		if sw, ok := node.(*Switch); ok {
			sw.routeIdx = make([]uint16, len(n.nodes))
			sw.routeSets = [][]*Port{nil}
			switches = append(switches, sw)
		}
		for _, p := range node.Ports() {
			switch v := p.Peer.ID(); {
			case leaf[u]:
			case leaf[v]:
				toLeaf = append(toLeaf, p)
			default:
				adj = append(adj, p)
				peer = append(peer, v)
			}
		}
		first[u+1] = int32(len(adj))
	}
	dist := make([]int32, len(n.nodes))
	queue := make([]NodeID, 0, len(n.nodes))
	var hops []*Port
	for dst := range n.nodes {
		if leaf[dst] {
			continue
		}
		for i := range dist {
			dist[i] = unseen
		}
		dist[dst] = 0
		queue = append(queue[:0], NodeID(dst))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u]
			hops = hops[:0]
			for i := first[u]; i < first[u+1]; i++ {
				switch v := peer[i]; dist[v] {
				case unseen:
					dist[v] = du + 1
					queue = append(queue, v)
				case du - 1:
					hops = append(hops, adj[i])
				}
			}
			if sw, ok := n.nodes[u].(*Switch); ok && len(hops) > 0 {
				sw.routeIdx[dst] = sw.internRouteSet(hops)
			}
		}
	}
	for _, sw := range switches {
		for _, p := range toLeaf {
			dst, edge := p.Peer.ID(), p.Owner.(*Switch)
			if edge == sw {
				sw.routeIdx[dst] = sw.internRouteSet(append(hops[:0], p))
			} else {
				sw.routeIdx[dst] = sw.routeIdx[edge.id]
			}
		}
	}
}
