// Onoff: the silent-flow scenario that motivates TFC (§2): a Storm-style
// connection transmits intermittently while a background flow runs
// continuously. Watch TFC (a) hand the silent flow's share to the active
// one within about one RTT (the effective-flow count only includes flows
// that actually sent a marked round), and (b) let the resuming flow
// re-acquire a window with a probe instead of bursting its stale one.
//
// Run with: go run ./examples/onoff
package main

import (
	"fmt"

	"tfcsim"
)

func main() {
	s := tfcsim.NewSimulator(7)
	net := tfcsim.NewNetwork(s)
	sw := net.NewSwitch("sw")
	link := tfcsim.LinkConfig{Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond}
	mk := func(name string) *tfcsim.Host {
		h := net.NewHost(name)
		h.ProcJitter = 10 * tfcsim.Microsecond
		net.Connect(h, sw, link)
		return h
	}
	steady, bursty := mk("steady"), mk("bursty")
	recv := net.NewHost("recv")
	recv.ProcJitter = 10 * tfcsim.Microsecond
	net.Connect(sw, recv, tfcsim.LinkConfig{
		Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond, BufA: 256 << 10,
	})
	net.ComputeRoutes()
	tfcsim.AttachTFC(sw, tfcsim.TFCConfig{})

	d := &tfcsim.Dialer{Sim: s, Proto: tfcsim.TFC}
	// Steady flow: always has data.
	var steadyConn *tfcsim.Conn
	steadyConn = d.Dial(steady, recv, func() { steadyConn.Sender.Send(64 << 10) }, nil)
	s.At(0, func() { steadyConn.Sender.Open(); steadyConn.Sender.Send(64 << 10) })
	// Bursty flow: 10 ms on, 10 ms off.
	active := false
	var burstyConn *tfcsim.Conn
	burstyConn = d.Dial(bursty, recv, func() {
		if active {
			burstyConn.Sender.Send(64 << 10)
		}
	}, nil)
	s.At(0, func() { burstyConn.Sender.Open() })
	var toggle func()
	toggle = func() {
		active = !active
		if active {
			burstyConn.Sender.Send(64 << 10)
		}
		s.After(10*tfcsim.Millisecond, toggle)
	}
	s.At(10*tfcsim.Millisecond, toggle)

	bott := sw.PortTo(recv.ID())
	fmt.Println("t(ms)  bursty  steady(Mbps)  bursty(Mbps)  queue(B)")
	prevS, prevB := int64(0), int64(0)
	const step = 5 * tfcsim.Millisecond
	for t := step; t <= 80*tfcsim.Millisecond; t += step {
		s.RunUntil(t)
		cs, cb := steadyConn.Received(), burstyConn.Received()
		state := "off"
		if active {
			state = "ON"
		}
		fmt.Printf("%5d  %-6s  %12.1f  %12.1f  %8d\n",
			int64(t/tfcsim.Millisecond), state,
			float64(cs-prevS)*8/step.Seconds()/1e6,
			float64(cb-prevB)*8/step.Seconds()/1e6,
			bott.QueueBytes())
		prevS, prevB = cs, cb
	}
	fmt.Printf("\nmax queue %dB, drops %d — the steady flow absorbs the silent share each off-period\n",
		bott.MaxQueue, bott.Drops)
}
