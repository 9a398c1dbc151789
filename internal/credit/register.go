package credit

import "tfcsim/internal/transport"

// init registers the ExpressPass-style receiver-driven credit transport:
// credit-gated senders plus per-port credit shapers at switches. It is
// not part of the default comparison matrix (the credit-baseline
// experiment opts in explicitly).
func init() {
	transport.Register("credit", transport.Factory{
		Desc: "ExpressPass-style receiver-driven credits with switch credit shaping",
		Dial: func(c transport.DialConfig) transport.Conn {
			s, r := Dial(Config{DialConfig: c})
			return transport.Conn{Sender: s, Received: r.Received, SRTT: s.SRTT}
		},
		Attach: func(a transport.AttachConfig) {
			for _, sw := range a.Switches {
				AttachShaper(sw)
			}
		},
	})
}
