package dctcp

import (
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
			var hooks []*MarkHook
			for _, sw := range a.Switches {
				hooks = append(hooks, AttachMarking(sw, KFor(a.MarkRate))...)
			}
			return hooks
		},
	})
}
