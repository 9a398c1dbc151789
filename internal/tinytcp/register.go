package tinytcp

import (
	"tfcsim/internal/tcp"
	"tfcsim/internal/transport"
)

// init registers tiny-buffer TCP: host-only (no switch attachment), like
// plain TCP.
func init() {
	transport.Register("tinytcp", transport.Factory{
		Desc:    "tiny-buffer TCP: paced NewReno with a capped window, sized for ~10-packet buffers",
		Compare: true,
		Dial: func(c transport.DialConfig) transport.Conn {
			s, r := Dial(tcp.Config{DialConfig: c})
			return transport.Conn{Sender: s, Received: r.Received, SRTT: s.SRTT}
		},
	})
}
