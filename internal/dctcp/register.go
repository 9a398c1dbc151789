package dctcp

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
)

// init registers DCTCP: TCP with ECN window scaling at hosts plus
// instantaneous-queue marking hooks on every switch port.
func init() {
	transport.Register("dctcp", transport.Factory{
		Desc:    "DCTCP: ECN marking at K with proportional window reduction",
		Compare: true,
		Dial: func(c transport.DialConfig) transport.Conn {
			s, r := Dial(tcp.Config{DialConfig: c})
			return transport.Conn{Sender: s, Received: r.Received, SRTT: s.SRTT}
		},
		Attach: func(a transport.AttachConfig) any {
			onMark, _ := a.Probe.(func(*netsim.Port, netsim.FlowID))
			var hooks []*MarkHook
			for _, sw := range a.Switches {
				for _, h := range AttachMarking(sw, KFor(a.MarkRate)) {
					h.OnMark = onMark
					hooks = append(hooks, h)
				}
			}
			return hooks
		},
	})
}
