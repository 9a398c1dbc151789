package transport

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Receiver is the receiving half of a connection: SYN-ACK, out-of-order
// reassembly, and one cumulative ACK per arriving segment, echoing ECN
// marks (CE -> ECE, for DCTCP) and TFC round marks (RM -> RMA, carrying
// the window the switches stamped on the RM packet, capped at the
// advertised window — paper §5.3). Both echoes are driven by flags only
// the respective senders set, so one receiver serves every window-based
// transport. The receiver-driven credit transport embeds it for the
// reassembly, FIN and ACK-building parts and drives the ACKs itself.
type Receiver struct {
	Host *netsim.Host // where the receiver lives
	Peer *netsim.Host // the data sender
	Flow netsim.FlowID

	Reasm Reassembly
	// FinAt records FIN arrival (0 if none yet).
	FinAt sim.Time
}

// NewReceiver creates the receiving side of flow and registers it at
// host. It runs on host's simulator — distinct from the sender's once the
// network is partitioned across shards.
func NewReceiver(host, peer *netsim.Host, flow netsim.FlowID) *Receiver {
	r := &Receiver{Host: host, Peer: peer, Flow: flow}
	host.Register(flow, r)
	return r
}

// Received returns the cumulative in-order bytes delivered.
func (r *Receiver) Received() int64 { return r.Reasm.Next() }

// Deliver processes an arriving packet.
func (r *Receiver) Deliver(pkt *netsim.Packet) {
	switch {
	case pkt.Flags&netsim.FlagSYN != 0:
		r.SendAck(netsim.FlagSYN|netsim.FlagACK, pkt.SentAt, netsim.WindowUnset)
	case pkt.Flags&netsim.FlagFIN != 0:
		r.Fin()
	case pkt.Payload > 0 || pkt.Flags&netsim.FlagRM != 0:
		r.Reasm.Add(pkt.Seq, pkt.Payload)
		flags, window := netsim.FlagACK, netsim.WindowUnset
		if pkt.Flags&netsim.FlagCE != 0 {
			flags |= netsim.FlagECE
		}
		if pkt.Flags&netsim.FlagRM != 0 {
			flags |= netsim.FlagRMA
			window = min(pkt.Window, DefaultRcvWnd)
		}
		r.SendAck(flags, pkt.SentAt, window)
	}
}

// Fin records the arrival of the sender's FIN.
func (r *Receiver) Fin() { r.FinAt = r.Host.Sim().Now() }

// SendAck sends the current cumulative ACK to the peer. sentAt is the
// timestamp the sender will take its RTT sample from.
func (r *Receiver) SendAck(flags netsim.Flag, sentAt sim.Time, window int64) {
	// Field assignments for the same reason as Reliable.Segment: this
	// runs once per delivered segment.
	p := r.Host.NewPacket()
	p.Flow, p.Src, p.Dst = r.Flow, r.Host.ID(), r.Peer.ID()
	p.Flags, p.Ack = flags, r.Reasm.Next()
	p.SentAt, p.Window = sentAt, window
	r.Host.Send(p)
}
