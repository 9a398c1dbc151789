// Package dctcp provides Data Center TCP (Alizadeh et al., SIGCOMM 2010),
// the primary baseline in TFC's evaluation. The sender/receiver machinery
// lives in package tcp (DCTCP is NewReno plus ECN-proportional window
// reduction); this package contributes the switch-side instantaneous-queue
// ECN marking hook and convenience constructors with the paper's
// parameters (K = 32 KB at 1 Gbps, g = 1/16).
package dctcp

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
)

// Marking thresholds used in TFC's evaluation: K = 32 KB on the 1 Gbps
// testbed (paper §6.1.1); at 10 Gbps the DCTCP guideline of 65 full frames.
const (
	DefaultK1G  = 32 << 10
	DefaultK10G = 65 * 1518
)

// MarkHook marks CE on ECN-capable packets when the instantaneous egress
// queue meets or exceeds K bytes (DCTCP's single-threshold AQM).
type MarkHook struct {
	K int
}

// OnEnqueue implements netsim.PortHook.
func (h *MarkHook) OnEnqueue(pkt *netsim.Packet, port *netsim.Port) bool {
	if pkt.Flags&netsim.FlagECT != 0 && port.QueueBytes() >= h.K {
		pkt.Flags |= netsim.FlagCE
		if pr := port.Network().Probe; pr != nil {
			pr.Observe(netsim.Event{Kind: netsim.EvMark, At: port.Sim().Now(), Port: port, Flow: pkt.Flow})
		}
	}
	return true
}

// AttachMarking installs a MarkHook with threshold k on every port of sw,
// returning the hooks (one per port, in port order).
func AttachMarking(sw *netsim.Switch, k int) []*MarkHook {
	hooks := make([]*MarkHook, 0, len(sw.Ports()))
	for _, p := range sw.Ports() {
		h := &MarkHook{K: k}
		p.Hook = h
		hooks = append(hooks, h)
	}
	return hooks
}

// KFor returns the marking threshold appropriate for a link rate.
func KFor(rate netsim.Rate) int {
	if rate >= 10*netsim.Gbps {
		return DefaultK10G
	}
	return DefaultK1G
}

// Dial creates a DCTCP sender (g = 1/16, initial alpha 0 unless cfg sets
// its own DCTCPParams) and its receiver.
func Dial(cfg tcp.Config) (*tcp.Sender, *transport.Receiver) {
	if cfg.DCTCP == nil {
		cfg.DCTCP = &tcp.DCTCPParams{}
	}
	return tcp.Dial(cfg)
}
