package core

import "tfcsim/internal/transport"

// init registers TFC with the transport registry so workloads and
// experiments resolve it by name ("tfc") like any other transport.
func init() {
	transport.Register("tfc", transport.Factory{
		Desc:    "Token Flow Control: switch-computed per-round windows (the paper's scheme)",
		Compare: true,
		Dial: func(c transport.DialConfig) transport.Conn {
			s, r := Dial(Config{DialConfig: c})
			return transport.Conn{Sender: s, Received: r.Received, SRTT: s.SRTT}
		},
		Attach: func(a transport.AttachConfig) {
			cfg := SwitchConfig{}
			if k, ok := a.Knobs.(*SwitchConfig); ok && k != nil {
				cfg = *k
			}
			for _, sw := range a.Switches {
				Attach(sw, cfg)
			}
		},
	})
}
