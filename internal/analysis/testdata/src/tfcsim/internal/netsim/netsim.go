// Package netsim is a fixture stub standing in for the real
// tfcsim/internal/netsim: the poolsafe analyzer identifies pooled
// packets and releasing sinks by this package path, shardsafe identifies
// the Port.Peer ownership boundary, rankreq identifies Receive/Deliver
// delivery sinks, and probepure identifies the Probe observer interface
// — so the stub lets the fixtures exercise all of them hermetically
// (analysistest source roots shadow the module).
package netsim

import "tfcsim/internal/sim"

// Packet mirrors the pooled packet type's shape.
type Packet struct {
	Seq     int64
	Ack     int64
	Payload int
}

// FrameBytes returns the on-wire frame size.
func (p *Packet) FrameBytes() int { return p.Payload }

// Network owns the packet pool.
type Network struct{}

// NewPacket returns a zeroed packet.
func (n *Network) NewPacket() *Packet { return &Packet{} }

// ReleasePacket returns p to the pool; p must not be used afterwards.
func (n *Network) ReleasePacket(p *Packet) {}

// Node mirrors the real node interface: Receive is the delivery sink
// rankreq looks for.
type Node interface {
	ID() int
	Receive(pkt *Packet, from *Port)
	Sim() *sim.Simulator
}

// Endpoint mirrors the flow endpoint; Deliver is a delivery sink too.
type Endpoint interface {
	Deliver(pkt *Packet)
}

// Port is a unidirectional transmit port. Peer — the node on the far end
// of the link — is shardsafe's ownership boundary.
type Port struct {
	Owner Node
	Peer  Node
	Label string

	EnqPackets int64
	QBytes     int
}

// Sim returns the simulator driving this port's shard.
func (p *Port) Sim() *sim.Simulator { return nil }

// QueueBytes is a read-only observer of queue occupancy.
func (p *Port) QueueBytes() int { return p.QBytes }

// Enqueue admits a packet to the port.
func (p *Port) Enqueue(pkt *Packet) {}

// EventKind classifies an observation record.
type EventKind uint8

// A few of the real kinds.
const (
	EvEnqueue EventKind = iota
	EvDrop
	EvSlot
)

// Event mirrors the one observation record, passed to probes by value.
type Event struct {
	Kind EventKind
	Port *Port
	Pkt  *Packet
	A    int64
}

// Probe is the one observer interface; implementations must be read-only
// (the contract probepure machine-checks).
type Probe interface {
	Observe(Event)
}

// Host is an attachment point mirroring netsim.Host.
type Host struct {
	net *Network
	id  int

	RxCount int64
}

// Network returns the host's network.
func (h *Host) Network() *Network { return h.net }

// NewPacket allocates from the host's network pool.
func (h *Host) NewPacket() *Packet { return h.net.NewPacket() }

// ID returns the stable node identity.
func (h *Host) ID() int { return h.id }

// Receive implements Node.
func (h *Host) Receive(pkt *Packet, from *Port) {}

// Sim implements Node.
func (h *Host) Sim() *sim.Simulator { return nil }
