// Package netsim implements a packet-level data-center network simulator:
// hosts, store-and-forward switches with finite drop-tail buffers,
// rate/delay links, static shortest-path routing, and per-port hooks that
// let congestion-control schemes (ECN marking, TFC token logic) attach to
// the forwarding path.
package netsim

import (
	"fmt"
	"math/bits"
	"strings"

	"tfcsim/internal/sim"
)

// NodeID identifies a host or switch within one Network.
type NodeID int32

// FlowID identifies a transport connection end-to-end. Both endpoints of a
// connection share the same FlowID (it plays the role of the 5-tuple).
type FlowID int64

// Flag is a set of packet header flags. RM and RMA are the two reserved
// TCP-flag bits TFC repurposes (paper §5): RM marks the first packet of
// each full window of data, RMA marks its acknowledgment. ECT/CE/ECE model
// ECN for DCTCP.
type Flag uint16

const (
	FlagSYN Flag = 1 << iota
	FlagACK
	FlagFIN
	FlagRM  // Round Mark: first packet of a window (TFC)
	FlagRMA // Round Mark Acknowledgment (TFC)
	FlagECT // ECN-capable transport
	FlagCE  // Congestion Experienced (set by switches)
	FlagECE // ECN Echo (set by receivers)
	FlagCRD // Credit (receiver-driven credit transports)
	FlagXOF // Pause: per-flow backpressure from a switch (BFC-style)
	FlagXON // Resume: per-flow backpressure release
)

// flagNames maps every defined Flag bit to its display name, in bit order.
// It is the single source of truth for Flag.String and is shared with the
// package tests, which check it stays in sync with the constants above.
var flagNames = []struct {
	bit  Flag
	name string
}{
	{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRM, "RM"},
	{FlagRMA, "RMA"}, {FlagECT, "ECT"}, {FlagCE, "CE"}, {FlagECE, "ECE"},
	{FlagCRD, "CRD"}, {FlagXOF, "XOF"}, {FlagXON, "XON"},
}

// String lists the set flags, e.g. "SYN|RM".
func (f Flag) String() string {
	if f == 0 {
		return "0"
	}
	var b strings.Builder
	for _, n := range flagNames {
		if f&n.bit != 0 {
			if b.Len() > 0 {
				b.WriteByte('|')
			}
			b.WriteString(n.name)
		}
	}
	if b.Len() == 0 {
		return "0" // only unknown bits set
	}
	return b.String()
}

// Framing constants. A data segment of Payload bytes travels as an
// Ethernet frame of Payload+HeaderBytes (TCP/IP 40 + Ethernet 18), with a
// 64-byte minimum frame. Links additionally charge WireOverheadBytes
// (preamble + inter-frame gap) per frame, giving the usual ~94.9% goodput
// ceiling for 1460-byte MSS on a fully loaded link.
const (
	HeaderBytes       = 58
	MinFrameBytes     = 64
	WireOverheadBytes = 20
	// MSS is the maximum segment size every transport uses.
	MSS = 1460
)

// Packet is a network packet (one Ethernet frame). Packets are passed by
// pointer and owned by exactly one queue or in-flight event at a time;
// switches may modify header fields (Window, Flags) in place, matching how
// TFC's NetFPGA switch rewrites headers on the data path.
type Packet struct {
	Flow FlowID
	Src  NodeID // original sender
	Dst  NodeID // final destination
	// Seq is the byte offset of the first payload byte (data packets).
	Seq int64
	// Ack is the cumulative acknowledgment (next expected byte).
	Ack int64
	// Payload is the number of application bytes carried.
	Payload int
	Flags   Flag
	// Window is the TFC window field in bytes. Senders initialize it to
	// WindowUnset; every TFC switch on the path lowers it to min(Window, W).
	Window int64
	// Weight is the flow's share weight for TFC's weighted allocation
	// policy (paper §4.1 allows "any allocation policies" over the token
	// pool). Zero is treated as 1 (plain fair share).
	Weight uint8
	// SentAt is the time the original sender transmitted the packet.
	SentAt sim.Time
	// Hops counts store-and-forward hops traversed (diagnostics).
	Hops int
}

// WindowUnset is the initial value of the Window field before any switch
// stamps it (the paper uses 0xffff in the 16-bit TCP window field; we use a
// 64-bit field and a correspondingly large sentinel).
const WindowUnset int64 = 1 << 40

// FrameBytes returns the Ethernet frame size of the packet.
func (p *Packet) FrameBytes() int {
	n := p.Payload + HeaderBytes
	if n < MinFrameBytes {
		n = MinFrameBytes
	}
	return n
}

// WireBytes returns the frame size plus per-frame wire overhead, i.e. the
// number of byte-times the packet occupies on a link.
func (p *Packet) WireBytes() int { return p.FrameBytes() + WireOverheadBytes }

// IsData reports whether the packet carries payload or is a forward-path
// control packet (SYN / FIN / TFC window-acquisition probe), as opposed to
// a pure acknowledgment.
func (p *Packet) IsData() bool { return p.Flags&FlagACK == 0 }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{flow=%d %d->%d seq=%d ack=%d len=%d %s w=%d}",
		p.Flow, p.Src, p.Dst, p.Seq, p.Ack, p.Payload, p.Flags, p.Window)
}

// Rate is a link bandwidth in bits per second.
type Rate int64

// Common rates.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

// TxTime returns the serialization delay of n bytes at rate r. The
// intermediate product n·8·1e9 is computed in 128 bits: the naive int64
// form overflows for n ≳ 1.07 GB (a multi-GB transfer handed to a pacing
// computation), silently going negative. Results that do fit are
// bit-identical to the old int64 arithmetic; delays beyond the int64 range
// saturate.
func (r Rate) TxTime(n int) sim.Time {
	if n <= 0 || r <= 0 {
		return 0
	}
	const maxTime = 1<<63 - 1
	hi, lo := bits.Mul64(uint64(n), 8*uint64(sim.Second))
	if hi >= uint64(r) {
		return sim.Time(maxTime) // quotient exceeds 64 bits
	}
	q, _ := bits.Div64(hi, lo, uint64(r))
	if q > maxTime {
		return sim.Time(maxTime)
	}
	return sim.Time(q)
}

// BytesPerSecond returns the rate converted to bytes/second.
func (r Rate) BytesPerSecond() float64 { return float64(r) / 8 }

// BytesIn returns how many bytes the link carries in duration d.
func (r Rate) BytesIn(d sim.Time) float64 {
	return float64(r) / 8 * d.Seconds()
}

func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}
