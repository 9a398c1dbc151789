// Package netsimtest holds the tests' one probe: a tap that keeps the
// records a test asserts on, filtered by kind, place, flow and packet
// flags.
package netsimtest

import "tfcsim/internal/netsim"

// Tap is a netsim.Probe that keeps, in order, the records of the kinds in
// Kinds that pass every filter set: the port, the host, the flow, and the
// packet flags (the packet carries all of Flags and none of NotFlags; a
// record without a packet carries none). Installed on a network by
// Attach, it subscribes to Kinds; as a transport.DialConfig.Probe it
// filters the unmasked sender-side stream itself.
type Tap struct {
	Kinds           netsim.KindSet
	Port            *netsim.Port  // nil: any port
	Host            *netsim.Host  // nil: any host
	Flow            netsim.FlowID // 0: any flow
	Flags, NotFlags netsim.Flag

	Recs []Record
}

// Record is one kept record. Packets are recycled once Observe returns,
// so Pkt is nil and Packet holds a copy of the packet (zero for records
// without one).
type Record struct {
	netsim.Event
	Packet netsim.Packet
}

// Attach installs t as n's probe, subscribed to t.Kinds, and returns t.
func Attach(n *netsim.Network, t *Tap) *Tap {
	n.SetProbe(t, t.Kinds)
	return t
}

// Observe implements netsim.Probe.
func (t *Tap) Observe(ev netsim.Event) {
	if !t.Kinds.Has(ev.Kind) || t.Port != nil && ev.Port != t.Port ||
		t.Host != nil && ev.Host != t.Host || t.Flow != 0 && ev.Flow != t.Flow {
		return
	}
	r := Record{Event: ev}
	if ev.Pkt != nil {
		r.Packet, r.Pkt = *ev.Pkt, nil
	}
	if r.Packet.Flags&t.Flags != t.Flags || r.Packet.Flags&t.NotFlags != 0 {
		return
	}
	t.Recs = append(t.Recs, r)
}

// Count returns how many kept records are of kind k.
func (t *Tap) Count(k netsim.EventKind) int {
	n := 0
	for _, r := range t.Recs {
		if r.Kind == k {
			n++
		}
	}
	return n
}
