// Quickstart: two TFC flows sharing a 1 Gbps bottleneck.
//
// Builds a dumbbell (two senders, one switch, one receiver), attaches
// TFC to the switch, runs 100 ms of virtual time, and prints per-flow
// goodput and the bottleneck queue — demonstrating TFC's headline
// properties: fair shares, ~rho0 utilization, and a near-zero queue.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"tfcsim"
)

func main() {
	s := tfcsim.NewSimulator(42)
	net := tfcsim.NewNetwork(s)

	sw := net.NewSwitch("sw")
	link := tfcsim.LinkConfig{Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond}
	var senders []*tfcsim.Host
	for i := 0; i < 2; i++ {
		h := net.NewHost(fmt.Sprintf("sender%d", i+1))
		h.ProcJitter = 10 * tfcsim.Microsecond // realistic host wakeup jitter
		net.Connect(h, sw, link)
		senders = append(senders, h)
	}
	recv := net.NewHost("recv")
	recv.ProcJitter = 10 * tfcsim.Microsecond
	net.Connect(sw, recv, tfcsim.LinkConfig{
		Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond, BufA: 256 << 10,
	})
	net.ComputeRoutes()

	// Enable TFC on the switch (rho0=0.97 by default; alpha=7/8 is fixed).
	tfcState := tfcsim.AttachTFC(sw, tfcsim.TFCConfig{})

	d := &tfcsim.Dialer{Sim: s, Proto: tfcsim.TFC}
	var conns []*tfcsim.Conn
	for _, h := range senders {
		conn := d.Dial(h, recv, nil, nil)
		conns = append(conns, conn)
		s.At(0, func() {
			conn.Sender.Open()
			conn.Sender.Send(1 << 30) // long-lived flow
		})
	}

	bott := sw.PortTo(recv.ID())
	fmt.Println("t(ms)  flow1(Mbps)  flow2(Mbps)  queue(B)  W(B)")
	prev := []int64{0, 0}
	const step = 10 * tfcsim.Millisecond
	for t := step; t <= 100*tfcsim.Millisecond; t += step {
		s.RunUntil(t)
		var rates []float64
		for i, c := range conns {
			cur := c.Received()
			rates = append(rates, float64(cur-prev[i])*8/step.Seconds()/1e6)
			prev[i] = cur
		}
		fmt.Printf("%5d  %11.1f  %11.1f  %8d  %4.0f\n",
			int64(t/tfcsim.Millisecond), rates[0], rates[1],
			bott.QueueBytes(), tfcState.PortState(bott).Window())
	}
	fmt.Printf("\nmax queue: %d bytes, drops: %d, rtt_b: %v\n",
		bott.MaxQueue, bott.Drops, tfcState.PortState(bott).RTTB())
}
