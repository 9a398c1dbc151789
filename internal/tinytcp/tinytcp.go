// Package tinytcp implements the tiny-buffer TCP baseline: NewReno with
// per-flow pacing and a capped congestion window, the configuration the
// buffer-sizing literature (Appenzeller et al., SIGCOMM 2004, and the
// later tiny-buffer results) shows can run on switches with O(10)-packet
// buffers. Pacing removes the ACK-clocked bursts that drop-tail queues
// otherwise have to absorb; the window cap keeps slow start from
// overshooting shallow buffers by whole windows.
//
// Like package dctcp it is a thin layer over package tcp — the pacing
// gate and window clamp live in the TCP sender (Config.Pace and
// Config.CwndCap) so the NewReno machinery is shared, not forked.
package tinytcp

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
)

// DefaultCwndCapSegs is the default window cap in segments. It sits well
// above the testbed topologies' bandwidth-delay product (~8 segments at
// 1 Gbps / 90 µs), so a lone flow still fills the link, while bounding
// how far past the BDP slow start can overshoot a ~10-packet buffer.
const DefaultCwndCapSegs = 32

// Dial creates a paced, window-capped TCP connection. Zero-valued Pace
// and CwndCap fields are overridden; everything else in cfg is passed
// through to package tcp.
func Dial(cfg tcp.Config) (*tcp.Sender, *transport.Receiver) {
	cfg.Pace = true
	if cfg.CwndCap == 0 {
		cfg.CwndCap = DefaultCwndCapSegs * netsim.MSS
	}
	return tcp.Dial(cfg)
}
