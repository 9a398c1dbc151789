package core

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/transport"
)

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
		Attach: func(a transport.AttachConfig) any {
			cfg := SwitchConfig{}
			if k, ok := a.Knobs.(*SwitchConfig); ok && k != nil {
				cfg = *k
			}
			states := make(map[*netsim.Switch]*SwitchState, len(a.Switches))
			for _, sw := range a.Switches {
				// Each switch's state runs on its own shard simulator.
				states[sw] = Attach(sw.Sim(), sw, cfg)
			}
			return states
		},
	})
}
