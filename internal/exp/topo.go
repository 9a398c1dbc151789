// Package exp contains one runner per table/figure of the paper's
// evaluation (Figs 6–16), plus the ablations called out in DESIGN.md.
// Each runner computes one cell of its figure (one protocol, fan-in,
// scenario or parameter value) from one config: it builds its topology,
// drives the workload, and returns a typed result that renders (String or
// a Format* function) as the paper's rows/series. Sweep fans a figure's
// cells out.
package exp

import (
	"fmt"
	"slices"

	"tfcsim/internal/core"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
	"tfcsim/internal/transport"
	"tfcsim/internal/workload"
)

// Proto re-exports the workload protocol selector (a transport registry
// key).
type Proto = workload.Proto

// Protocol constants.
const (
	TFC     = workload.TFC
	TCP     = workload.TCP
	DCTCP   = workload.DCTCP
	CREDIT  = workload.CREDIT
	BFC     = workload.BFC
	TINYTCP = workload.TINYTCP
)

// AllProtos lists the protocols compared throughout the evaluation: every
// registered transport flagged for comparison, in sorted name order. An
// out-of-tree transport registered with Compare set joins the full
// experiment matrix without any edits here.
var AllProtos = compareProtos()

func compareProtos() []Proto {
	var ps []Proto
	for _, n := range transport.CompareNames() {
		ps = append(ps, Proto(n))
	}
	return ps
}

// Env is a built topology with its transport attached to every switch
// (TFC's state is read back with core.StateOf).
type Env struct {
	Sim      *sim.Simulator
	Net      *netsim.Network
	Hosts    []*netsim.Host
	Switches []*netsim.Switch
	Dialer   *workload.Dialer
}

// TopoConfig carries the knobs shared by all topology builders.
type TopoConfig struct {
	Proto Proto
	// Seed for the deterministic RNG.
	Seed int64
	// Shards, at 2 or more, runs a FatTree on up to that many shards driven
	// in parallel by the conservative engine (sim.Group, DESIGN.md §10),
	// clamped to its k pods; the output is byte-identical at every setting.
	// Only FatTree honours it: every other builder runs sequentially. A
	// sharded network cannot carry Telemetry (InstrumentNetwork panics), so
	// observed trials are sequential.
	Shards int
	// Switch config for TFC (ablations, rho0, callbacks), handed to the
	// transport's Attach as its Knobs; only TFC reads it.
	TFC core.SwitchConfig
	// MinRTO for senders (default 200ms).
	MinRTO sim.Time
	// Telemetry, when non-nil, is this trial's telemetry sink. The builder
	// binds it to the simulator and instruments the forwarding path, the
	// protocol attachments, and every sender the Dialer creates. Nil (the
	// default) disables all instrumentation. A trial sink serves exactly
	// one environment; Sweep mints one per cell.
	Telemetry *telemetry.Trial
}

// hostJitter is every host's max uniform processing delay: real hosts have
// it, and TFC's rtt_b min-filter relies on it (§4.5).
const hostJitter = 10 * sim.Microsecond

func newEnv(cfg *TopoConfig) *Env {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := sim.New(cfg.Seed)
	cfg.Telemetry.Bind(s)
	return &Env{
		Sim: s,
		Net: netsim.NewNetwork(s),
		Dialer: &workload.Dialer{
			Sim: s, Proto: cfg.Proto, MinRTO: cfg.MinRTO,
			Probe: cfg.Telemetry.DialProbe,
		},
	}
}

func (e *Env) newHost(name string) *netsim.Host {
	h := e.Net.NewHost(name)
	h.ProcJitter = hostJitter
	e.Hosts = append(e.Hosts, h)
	return h
}

func (e *Env) newSwitch(name string) *netsim.Switch {
	sw := e.Net.NewSwitch(name)
	e.Switches = append(e.Switches, sw)
	return sw
}

// finish computes routes, partitions the network when assign is non-nil
// (FatTree's shard plan: each node's shard by NodeID, every shard up to
// the largest used), attaches the selected transport's switch-side
// machinery through the registry, and instruments everything with the
// trial's telemetry sink (if any). Partitioning sits between route
// computation and attachment: attachments and dialed connections bind to
// node simulators, which must already be the shard simulators by then.
// No per-protocol wiring lives here: registering a transport is all it
// takes to run it on any topology.
func (e *Env) finish(cfg *TopoConfig, markRate netsim.Rate, assign []int) {
	e.Net.ComputeRoutes()
	if assign != nil {
		if err := e.Net.Partition(assign, slices.Max(assign)+1); err != nil {
			panic(fmt.Sprintf("exp: %v", err))
		}
	}
	telemetry.InstrumentNetwork(cfg.Telemetry, e.Net)
	f, err := transport.Lookup(string(cfg.Proto))
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	if f.Attach == nil {
		return
	}
	f.Attach(transport.AttachConfig{
		Switches: e.Switches, MarkRate: markRate, Knobs: &cfg.TFC,
	})
	telemetry.InstrumentTransport(cfg.Telemetry, string(cfg.Proto), e.Switches)
}

// Testbed paper parameters (§6.1.1): 256 KB per port, 1 Gbps.
const (
	TestbedBuf  = 256 << 10
	TestbedRate = netsim.Gbps
)

// Testbed builds the paper's Fig 4 testbed: core switch NF0, three leaf
// switches NF1–NF3, three hosts per leaf (H1–H9), all 1 Gbps with 256 KB
// port buffers. Hosts[i] is H(i+1).
func Testbed(cfg TopoConfig) *Env {
	e := newEnv(&cfg)
	nf0 := e.newSwitch("NF0")
	link := netsim.LinkConfig{
		Rate: TestbedRate, Delay: 5 * sim.Microsecond,
		BufA: TestbedBuf, BufB: TestbedBuf,
	}
	for l := 1; l <= 3; l++ {
		leaf := e.newSwitch("NF" + string(rune('0'+l)))
		e.Net.Connect(leaf, nf0, link)
		for j := 0; j < 3; j++ {
			h := e.newHost("H")
			// Host NICs are not buffer-limited (senders are window-limited).
			e.Net.Connect(h, leaf, netsim.LinkConfig{
				Rate: TestbedRate, Delay: 5 * sim.Microsecond, BufB: TestbedBuf,
			})
		}
	}
	e.finish(&cfg, TestbedRate, nil)
	return e
}

// Star builds n sender hosts and one receiver behind a single switch.
// Used by the incast experiments; rate/buffer configurable.
func Star(cfg TopoConfig, n int, rate netsim.Rate, buf int) (*Env, []*netsim.Host, *netsim.Host, *netsim.Port) {
	e := newEnv(&cfg)
	sw := e.newSwitch("sw")
	link := netsim.LinkConfig{Rate: rate, Delay: 5 * sim.Microsecond, BufA: buf, BufB: buf}
	var senders []*netsim.Host
	for i := 0; i < n; i++ {
		h := e.newHost("s")
		e.Net.Connect(h, sw, link)
		senders = append(senders, h)
	}
	recv := e.newHost("recv")
	e.Net.Connect(sw, recv, netsim.LinkConfig{
		Rate: rate, Delay: 5 * sim.Microsecond, BufA: buf,
	})
	e.finish(&cfg, rate, nil)
	return e, senders, recv, sw.PortTo(recv.ID())
}

// MultiBottleneck builds the paper's Fig 5 work-conserving topology:
// host1 -> S1 -> S2; host2, host3, host4 attach to S2. The two potential
// bottlenecks are the S1->S2 uplink and the S2->host3 downlink.
type MultiBottleneckEnv struct {
	*Env
	H1, H2, H3, H4 *netsim.Host
	S1, S2         *netsim.Switch
	Uplink         *netsim.Port // S1 -> S2
	Downlink       *netsim.Port // S2 -> host3
}

// MultiBottleneck constructs the Fig 5 environment.
func MultiBottleneck(cfg TopoConfig) *MultiBottleneckEnv {
	e := newEnv(&cfg)
	s1 := e.newSwitch("S1")
	s2 := e.newSwitch("S2")
	link := netsim.LinkConfig{
		Rate: TestbedRate, Delay: 5 * sim.Microsecond,
		BufA: TestbedBuf, BufB: TestbedBuf,
	}
	h1 := e.newHost("h1")
	h2 := e.newHost("h2")
	h3 := e.newHost("h3")
	h4 := e.newHost("h4")
	e.Net.Connect(h1, s1, link)
	e.Net.Connect(s1, s2, link)
	e.Net.Connect(h2, s2, link)
	e.Net.Connect(h3, s2, link)
	e.Net.Connect(h4, s2, link)
	e.finish(&cfg, TestbedRate, nil)
	return &MultiBottleneckEnv{
		Env: e, H1: h1, H2: h2, H3: h3, H4: h4, S1: s1, S2: s2,
		Uplink:   s1.PortTo(s2.ID()),
		Downlink: s2.PortTo(h3.ID()),
	}
}

// LeafSpine builds the large-scale simulation topology of §6.2.2:
// `racks` leaf switches with `perRack` servers each, 1 Gbps downlinks and
// one 10 Gbps uplink per leaf to a single spine, 20 µs link latency
// (4-hop inter-rack RTT 160 µs, 2-hop intra-rack RTT 80 µs).
func LeafSpine(cfg TopoConfig, racks, perRack int, buf int) *Env {
	e := newEnv(&cfg)
	spine := e.newSwitch("spine")
	for r := 0; r < racks; r++ {
		leaf := e.newSwitch("leaf")
		e.Net.Connect(leaf, spine, netsim.LinkConfig{
			Rate: 10 * netsim.Gbps, Delay: 20 * sim.Microsecond,
			BufA: buf, BufB: buf,
		})
		for j := 0; j < perRack; j++ {
			h := e.newHost("h")
			e.Net.Connect(h, leaf, netsim.LinkConfig{
				Rate: netsim.Gbps, Delay: 20 * sim.Microsecond, BufB: buf,
			})
		}
	}
	e.finish(&cfg, 10*netsim.Gbps, nil)
	return e
}

// faucet keeps a connection's send queue topped up while active,
// modelling a long-lived (or on-off) flow.
type faucet struct {
	conn   *workload.Conn
	active bool
	chunk  int64
}

// newFaucet dials a connection that refills itself whenever drained.
func newFaucet(d *workload.Dialer, src, dst *netsim.Host) *faucet {
	f := &faucet{chunk: 1 << 20}
	f.conn = d.Dial(src, dst, func() {
		if f.active {
			f.conn.Sender.Send(f.chunk)
		}
	}, nil)
	return f
}

// Start opens the connection and begins sending.
func (f *faucet) Start() {
	f.active = true
	f.conn.Sender.Open()
	f.conn.Sender.Send(f.chunk)
}

// Resume re-activates an inactive faucet.
func (f *faucet) Resume() {
	if f.active {
		return
	}
	f.active = true
	f.conn.Sender.Send(f.chunk)
}

// Pause stops feeding; in-flight data drains naturally (the flow becomes
// "silent" in the paper's terms, not closed).
func (f *faucet) Pause() { f.active = false }
