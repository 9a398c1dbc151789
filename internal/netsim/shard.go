package netsim

import (
	"fmt"
	"math/rand"

	"tfcsim/internal/sim"
)

// Sharded execution (conservative parallel DES, see sim.Group and
// DESIGN.md §10). A partitioned network assigns every node — and with it
// every transmit port and pooled resource — to one shard, each driven by
// its own sim.Simulator on its own goroutine. Links whose two ends live
// in different shards become the synchronization surface: their
// propagation delay bounds how far shards may run ahead of each other
// (the lookahead), and their deliveries travel through the group's
// deterministic per-epoch mailboxes instead of the sender's event queue.
//
// Entity-owned randomness is a prerequisite: a shared per-trial
// rand.Rand would be consumed in shard-execution order, which is not the
// sequential order. Hosts draw processing jitter from a per-host stream
// and ports draw wire loss from a per-port stream, both derived from the
// trial seed via sim.SubSeed — identical draws in both modes.

// Salt namespaces for sim.SubSeed entity streams.
const (
	saltHostJitter = 0x48490000 // + NodeID
	saltPortLoss   = 0x504c0000 // + port creation index
)

// netShard is one shard's execution context: its simulator plus the
// pooled resources that must be single-owner under parallel execution.
// Every pool is touched only by its owning shard's goroutine (allocation
// happens where a packet/event is created, release where it is consumed
// — both on the owning shard), so no locks are needed. An unpartitioned
// network has exactly one shard whose simulator is Network.Sim.
type netShard struct {
	id  int
	sim *sim.Simulator
	net *Network

	pktFree []*Packet
	evFree  []*portEvent // deferred host-send carriers
	rxFree  []*rxEvent   // delivery carriers

	// live counts the packets this shard owns now (allocated here or
	// delivered here over a crossing link, and neither released nor sent
	// across since), peakLive the most it ever did: the shard's own demand
	// for pool capacity, against which adopt trims what crossings bring in.
	live, peakLive int
	// released counts the packets returned to this pool while poolCheck is
	// armed: the tests hold it equal to the stream's Deliver, Stray and
	// Drop records.
	released int
}

func (sh *netShard) newPacket() *Packet {
	sh.own()
	if k := len(sh.pktFree) - 1; k >= 0 {
		p := sh.pktFree[k]
		sh.pktFree[k] = nil
		sh.pktFree = sh.pktFree[:k]
		if poolCheck {
			*p = Packet{}
		}
		return p
	}
	// Pool miss: grow by a slab. Packets contain no pointers, so the slab
	// is GC-opaque, and a slab lives for as long as any of its elements is
	// referenced — the pool recycles; only adopt ever lets one go.
	slab := make([]Packet, pktSlab)
	for i := 1; i < pktSlab; i++ {
		sh.pktFree = append(sh.pktFree, &slab[i])
	}
	return &slab[0]
}

// own counts one more packet owned by the shard.
func (sh *netShard) own() {
	sh.live++
	if sh.live > sh.peakLive {
		sh.peakLive = sh.live
	}
}

func (sh *netShard) release(p *Packet) {
	if p == nil {
		return
	}
	sh.live--
	if poolCheck {
		checkLive(p, "released twice")
		sh.released++
		*p = Packet{Hops: poisonHops}
	} else {
		*p = Packet{}
	}
	//tfcvet:allow hotalloc — free-list push: newPacket popped with truncation, so this append reuses the retained capacity (amortized pool growth)
	sh.pktFree = append(sh.pktFree, p)
}

// poolCheck arms the pool-misuse detector. Only tests set it (through
// export_test.go), before a network runs: release then stamps a poison
// value instead of zeroing, every point that takes a packet in
// (Port.Enqueue, Host.deliver, release itself) panics on a poisoned one —
// a use after release or a double release.
var poolCheck bool

// poisonHops marks a packet that sits in a free list while poolCheck is
// armed; no live packet has a negative hop count.
const poisonHops = -1 << 31

func checkLive(p *Packet, what string) {
	if p.Hops == poisonHops {
		panic("netsim: pooled packet " + what + " (a *Packet is valid only inside the Deliver/OnEnqueue/Intercept/Observe call it was passed to)")
	}
}

func (sh *netShard) newHostSend(port *Port, pkt *Packet) *portEvent {
	var e *portEvent
	if k := len(sh.evFree) - 1; k >= 0 {
		e = sh.evFree[k]
		sh.evFree[k] = nil
		sh.evFree = sh.evFree[:k]
	} else {
		//tfcvet:allow hotalloc — free-list miss: the carrier returns when it fires, so this runs once per deferred send in flight at the peak
		e = &portEvent{}
	}
	e.port, e.pkt = port, pkt
	return e
}

func (sh *netShard) newRx(p *Port, pkt *Packet) *rxEvent {
	var e *rxEvent
	if k := len(sh.rxFree) - 1; k >= 0 {
		e = sh.rxFree[k]
		sh.rxFree[k] = nil
		sh.rxFree = sh.rxFree[:k]
	} else {
		//tfcvet:allow hotalloc — free-list miss: RunEvent returns the carrier, so this runs once per delivery in flight at the peak
		e = &rxEvent{}
	}
	e.p, e.pkt = p, pkt
	return e
}

// adopt takes a packet that arrived over a crossing link into the shard's
// accounts. The packet will be released here, not where it was allocated:
// crossings move pool capacity, and a shard that consumes more than it
// originates (credits shaped away at its switches, drops, one-way traffic)
// would grow its free list for as long as the run lasts. So when live plus
// free packets exceed what the shard itself ever needed plus the slab a
// pool miss adds, one spare packet is left to the garbage collector. (The
// carrier the packet rode in on migrates the same way; rxEvent.RunEvent
// holds it to the same bound.)
func (sh *netShard) adopt() {
	sh.own()
	if k := len(sh.pktFree) - 1; sh.live+k+1 > sh.peakLive+pktSlab {
		sh.pktFree[k] = nil
		sh.pktFree = sh.pktFree[:k]
	}
}

// Group returns the sharded dispatcher, or nil for a sequential network.
func (n *Network) Group() *sim.Group { return n.group }

// Shards returns the number of shards (1 for a sequential network).
func (n *Network) Shards() int { return len(n.shards) }

// Partition splits the network into nShards shards driven in parallel by
// a conservative sim.Group, with assign giving each node's shard (indexed
// by NodeID). It must be called on a fully built topology before any
// event has executed: partitioning rebinds every node and port to its
// shard's simulator, so entities created or attached afterwards
// (transports, hooks) pick up the right one. Events already scheduled
// stay on the control simulator — the right home for trial-wide cadences
// (telemetry sampling, experiment probes), which then run at epoch
// barriers; anything that must run on a node's shard has to be scheduled
// after the call, through node.Sim().
//
// Every link that crosses a shard boundary must have a positive
// propagation delay — the minimum such delay becomes the group's
// lookahead window. Subject to the tie caveat documented on sim.Group,
// the partitioned run is byte-identical to the sequential one.
func (n *Network) Partition(assign []int, nShards int) error {
	if n.group != nil {
		return fmt.Errorf("netsim: network is already partitioned")
	}
	if nShards < 2 {
		return fmt.Errorf("netsim: Partition needs at least 2 shards, got %d", nShards)
	}
	if len(assign) != len(n.nodes) {
		return fmt.Errorf("netsim: assign covers %d nodes, network has %d", len(assign), len(n.nodes))
	}
	if n.Sim.Now() != 0 || n.Sim.Executed() != 0 {
		return fmt.Errorf("netsim: Partition must run before any event has executed")
	}
	for i, s := range assign {
		if s < 0 || s >= nShards {
			return fmt.Errorf("netsim: node %d assigned to shard %d, want [0,%d)", i, s, nShards)
		}
	}
	// Lookahead: the minimum propagation delay over shard-crossing links.
	lookahead := sim.Time(0)
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			if assign[p.Owner.ID()] == assign[p.Peer.ID()] {
				continue
			}
			if p.Delay <= 0 {
				return fmt.Errorf("netsim: link %s crosses shards with zero propagation delay", p.Label)
			}
			if lookahead == 0 || p.Delay < lookahead {
				lookahead = p.Delay
			}
		}
	}
	if lookahead == 0 {
		// No link crosses a boundary: the shards are independent and any
		// positive window is safe.
		lookahead = sim.Second
	}
	g := sim.NewGroup(n.Sim, nShards, lookahead)
	n.group = g
	shards := make([]*netShard, nShards)
	for i := range shards {
		shards[i] = &netShard{id: i, sim: g.Shard(i), net: n}
	}
	n.shards = shards
	for _, node := range n.nodes {
		sh := shards[assign[node.ID()]]
		node.setShard(sh)
		for _, p := range node.Ports() {
			p.sh = sh
			p.sim = sh.sim
			p.peerSh = shards[assign[p.Peer.ID()]]
			p.cross = p.peerSh != sh
		}
	}
	return nil
}

// jitterRand returns the host's private jitter stream, derived from the
// trial seed and the host's stable NodeID so the draw sequence does not
// depend on execution interleaving (sequential vs sharded).
func (h *Host) jitterRand() *rand.Rand {
	if h.jrand == nil {
		h.jrand = rand.New(rand.NewSource(sim.SubSeed(h.net.baseSeed, saltHostJitter+uint64(h.id))))
	}
	return h.jrand
}

// lossRand returns the port's private wire-loss stream (LossModel
// draws), keyed by the port's creation index.
func (p *Port) lossRand() *rand.Rand {
	if p.lrand == nil {
		p.lrand = rand.New(rand.NewSource(sim.SubSeed(p.net.baseSeed, saltPortLoss+p.idx)))
	}
	return p.lrand
}
