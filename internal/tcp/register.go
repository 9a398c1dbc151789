package tcp

import "tfcsim/internal/transport"

// init registers plain TCP NewReno with the transport registry. The
// protocol is host-only: no switch-side attachment.
func init() {
	transport.Register("tcp", transport.Factory{
		Desc:    "TCP NewReno, testbed-era tuning (IW2, 200ms min RTO, per-packet ACKs)",
		Compare: true,
		Dial: func(c transport.DialConfig) transport.Conn {
			s, r := Dial(Config{DialConfig: c})
			return transport.Conn{Sender: s, Received: r.Received, SRTT: s.SRTT}
		},
	})
}
