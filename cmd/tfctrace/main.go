// Command tfctrace runs a small two-flow scenario and prints a
// tcpdump-style packet lifecycle trace, which is the quickest way to watch
// a transport's control machinery (TFC's RM-marked rounds and window
// stamping, BFC's XOF/XON backpressure, DCTCP's CE marks) in action. It
// is one more consumer of the simulator's event stream: a netsim.Probe
// that prints the packet-lifecycle records.
//
// Usage:
//
//	tfctrace [-proto NAME] [-flows N] [-us N] [-max N] [-flow id]
//
// -proto accepts any registered transport (see `tfcsim run` usage for the
// list). -flow 0 (the default) traces all flows; any other value
// restricts the trace to that single flow ID.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tfcsim"
	"tfcsim/internal/netsim"
)

func main() { os.Exit(run(os.Stdout, os.Args[1:])) }

// printer is the text view: it prints the first max packet-lifecycle
// records (of one flow, if only is set) and ignores every other kind.
type printer struct {
	w     io.Writer
	lines int
	max   int
	only  int64
}

// Observe implements netsim.Probe.
func (p *printer) Observe(ev netsim.Event) {
	switch ev.Kind {
	case netsim.EvHostSend, netsim.EvEnqueue, netsim.EvDrop, netsim.EvTx, netsim.EvDeliver, netsim.EvStray:
	default:
		return
	}
	if p.lines >= p.max || (p.only != 0 && int64(ev.Flow) != p.only) {
		return
	}
	p.lines++
	pkt := ev.Pkt
	fmt.Fprintf(p.w, "%10s  %-5s %-10s flow=%d seq=%-7d ack=%-7d len=%-4d w=%-6s %s\n",
		ev.At, ev.Kind, ev.Where(), pkt.Flow, pkt.Seq, pkt.Ack, pkt.Payload,
		windowStr(pkt.Window), pkt.Flags)
}

// run is the whole command: it parses args, runs the scenario and writes
// the trace to w, returning the exit status.
func run(w io.Writer, args []string) int {
	fs := flag.NewFlagSet("tfctrace", flag.ContinueOnError)
	proto := fs.String("proto", "tfc",
		"transport protocol: "+strings.Join(tfcsim.Protocols(), ", "))
	flows := fs.Int("flows", 2, "number of concurrent flows")
	us := fs.Int64("us", 500, "microseconds of virtual time to trace")
	max := fs.Int("max", 200, "maximum trace lines")
	only := fs.Int64("flow", 0, "trace only this flow ID (0 = all)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if !tfcsim.ProtocolRegistered(*proto) {
		fmt.Fprintf(os.Stderr, "tfctrace: unknown protocol %q (registered: %s)\n",
			*proto, strings.Join(tfcsim.Protocols(), ", "))
		fs.Usage()
		return 2
	}

	s := tfcsim.NewSimulator(1)
	net := tfcsim.NewNetwork(s)
	sw := net.NewSwitch("sw")
	var senders []*tfcsim.Host
	for i := 0; i < *flows; i++ {
		h := net.NewHost(fmt.Sprintf("h%d", i+1))
		h.ProcJitter = 10 * tfcsim.Microsecond
		net.Connect(h, sw, tfcsim.LinkConfig{Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond})
		senders = append(senders, h)
	}
	recv := net.NewHost("recv")
	net.Connect(sw, recv, tfcsim.LinkConfig{
		Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond, BufA: 256 << 10,
	})
	net.ComputeRoutes()
	if _, err := tfcsim.AttachTransport(s, *proto, []*tfcsim.Switch{sw}, tfcsim.Gbps); err != nil {
		fmt.Fprintln(os.Stderr, "tfctrace:", err)
		return 2
	}

	view := &printer{w: w, max: *max, only: *only}
	net.Probe = view

	d := &tfcsim.Dialer{Sim: s, Proto: tfcsim.Proto(*proto)}
	for _, h := range senders {
		conn := d.Dial(h, recv, nil, nil)
		s.At(0, func() {
			conn.Sender.Open()
			conn.Sender.Send(1 << 20)
		})
	}
	s.RunUntil(tfcsim.Time(*us) * tfcsim.Microsecond)
	fmt.Fprintf(w, "... traced %d events over %dus of virtual time\n", view.lines, *us)
	return 0
}

func windowStr(w int64) string {
	if w >= netsim.WindowUnset {
		return "unset"
	}
	return fmt.Sprint(w)
}
