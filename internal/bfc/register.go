package bfc

import "tfcsim/internal/transport"

// init registers BFC with the transport registry: fixed-window senders
// plus per-flow pause/resume hooks on every switch port.
func init() {
	transport.Register("bfc", transport.Factory{
		Desc:    "BFC-style per-hop backpressure: per-flow XOF/XON pause thresholds at switches",
		Compare: true,
		Dial: func(c transport.DialConfig) transport.Conn {
			s, r := Dial(Config{DialConfig: c})
			return transport.Conn{Sender: s, Received: r.Received, SRTT: s.SRTT}
		},
		Attach: func(a transport.AttachConfig) {
			for _, sw := range a.Switches {
				AttachSwitch(sw)
			}
		},
	})
}
