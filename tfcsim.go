// Package tfcsim is a packet-level data-center network simulator built to
// reproduce "TFC: Token Flow Control in Data Center Networks" (Zhang,
// Ren, Shu, Cheng — EuroSys 2016), together with the baselines the paper
// evaluates against (TCP NewReno and DCTCP), three further baselines
// (per-hop backpressure, tiny-buffer TCP, receiver-driven credits) and a
// harness that regenerates every figure of the paper's evaluation.
//
// The package is a facade over the implementation packages:
//
//   - internal/sim       — deterministic discrete-event engine
//   - internal/netsim    — hosts, switches, links, routing
//   - internal/transport — the transport registry and the reliable-delivery core
//   - internal/core      — TFC (the paper's contribution)
//   - internal/tcp       — TCP NewReno (+ DCTCP window machinery)
//   - internal/dctcp     — DCTCP ECN marking and constructors
//   - internal/bfc, internal/tinytcp, internal/credit — the further baselines
//   - internal/workload  — incast and web-search benchmark generators
//   - internal/exp       — one runner per paper figure
//
// # Quick start
//
//	s := tfcsim.NewSimulator(1)
//	net := tfcsim.NewNetwork(s)
//	a, b := net.NewHost("a"), net.NewHost("b")
//	sw := net.NewSwitch("sw")
//	net.Connect(a, sw, tfcsim.LinkConfig{Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond})
//	net.Connect(sw, b, tfcsim.LinkConfig{Rate: tfcsim.Gbps, Delay: 5 * tfcsim.Microsecond, BufA: 256 << 10})
//	net.ComputeRoutes()
//	tfcsim.AttachTFC(sw, tfcsim.TFCConfig{})
//	d := &tfcsim.Dialer{Sim: s, Proto: tfcsim.TFC}
//	conn := d.Dial(a, b, nil, nil)
//	conn.Sender.Open()
//	conn.Sender.Send(1 << 20)
//	s.RunUntil(100 * tfcsim.Millisecond)
//
// Or run a whole paper experiment, fanning its trials across cores
// (output is byte-identical at any parallelism — every trial's seed is
// derived from its index, never from scheduling order):
//
//	e, _ := tfcsim.Find("fig12")
//	res, err := e.Run(ctx, tfcsim.RunOptions{Scale: tfcsim.Quick, Seed: 7, Parallelism: 8})
//	// res.Text is the rendered table, res.Data the []exp.IncastPoint,
//	// res.Trials the per-trial wall-time/event metrics.
package tfcsim

import (
	"tfcsim/internal/core"
	"tfcsim/internal/dctcp"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/telemetry"
	"tfcsim/internal/transport"
	"tfcsim/internal/workload"
)

// Core simulation types, re-exported for library consumers.
type (
	// Simulator is the deterministic discrete-event engine.
	Simulator = sim.Simulator
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Timer is a cancellable scheduled event. It is a small value handle
	// (safe to copy; the zero value is inert) onto a pooled timer node.
	Timer = sim.Timer

	// Network is a collection of hosts, switches and links.
	Network = netsim.Network
	// Host is an end system with one NIC.
	Host = netsim.Host
	// Switch is a store-and-forward output-queued switch.
	Switch = netsim.Switch
	// Port is a unidirectional transmit port (queue + link).
	Port = netsim.Port
	// LinkConfig describes a full-duplex cable.
	LinkConfig = netsim.LinkConfig
	// Packet is one network packet.
	Packet = netsim.Packet
	// Rate is link bandwidth in bits/second.
	Rate = netsim.Rate
	// FlowID identifies one transport connection.
	FlowID = netsim.FlowID

	// Proto selects a transport protocol for workloads. It is a transport
	// registry key: any name passed to RegisterTransport is valid.
	Proto = workload.Proto
	// Dialer creates connections of a chosen protocol.
	Dialer = workload.Dialer
	// Conn couples a sender with its receiver-side byte counter.
	Conn = workload.Conn

	// TransportFactory bundles a transport's constructors and switch-side
	// attachment for the registry (see RegisterTransport).
	TransportFactory = transport.Factory
	// TransportDialConfig parameterizes one registry-dialed connection.
	TransportDialConfig = transport.DialConfig
	// TransportAttachConfig parameterizes a transport's switch attachment.
	TransportAttachConfig = transport.AttachConfig
	// TransportConn is the sender/receiver pair a factory's Dial returns.
	TransportConn = transport.Conn
	// Sender is the protocol-agnostic sending interface all transports
	// implement (Open/Send/Acked/Queued/Stats/Close).
	Sender = transport.Sender

	// TFCConfig parameterizes TFC's switch behaviour: rho0 and the
	// ablation switches.
	TFCConfig = core.SwitchConfig
	// TFCSwitchState exposes per-port TFC state for inspection.
	TFCSwitchState = core.SwitchState

	// TelemetryOptions configures the optional observability layer
	// (RunOptions.Telemetry): trace/metrics output paths and the event
	// ring's capacity.
	TelemetryOptions = telemetry.Options
	// TelemetryCollector is a run's merged telemetry (Result.Telemetry).
	TelemetryCollector = telemetry.Collector

	// ObsOptions configures the runtime observatory (live introspection
	// endpoint, causal packet spans, invariant watchdogs).
	ObsOptions = telemetry.ObsOptions
	// Observatory is the runtime observability hub (RunOptions.Obs).
	Observatory = telemetry.Observatory
)

// NewObservatory creates a runtime observatory; pass it via
// RunOptions.Obs and call Start/Stop around the run to serve the live
// endpoint.
func NewObservatory(opts ObsOptions) *Observatory { return telemetry.NewObservatory(opts) }

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Rate units.
const (
	Kbps = netsim.Kbps
	Mbps = netsim.Mbps
	Gbps = netsim.Gbps
)

// Protocols.
const (
	TFC   = workload.TFC
	TCP   = workload.TCP
	DCTCP = workload.DCTCP
	// CREDIT is an ExpressPass-style receiver-driven credit transport,
	// included as a second credit-based baseline (see internal/credit).
	CREDIT = workload.CREDIT
	// BFC is a per-hop per-flow backpressure baseline (see internal/bfc).
	BFC = workload.BFC
	// TINYTCP is paced, window-capped TCP sized for ~10-packet buffers
	// (see internal/tinytcp).
	TINYTCP = workload.TINYTCP
)

// MSS is the maximum segment size (bytes) every transport uses.
const MSS = netsim.MSS

// NewSimulator creates a deterministic simulator seeded with seed.
func NewSimulator(seed int64) *Simulator { return sim.New(seed) }

// NewNetwork creates an empty network on the simulator.
func NewNetwork(s *Simulator) *Network { return netsim.NewNetwork(s) }

// AttachTFC enables TFC on a switch: every port gets token/effective-flow
// state and the RMA delay arbiter is installed, all running on the
// switch's own simulator.
func AttachTFC(sw *Switch, cfg TFCConfig) *TFCSwitchState {
	return core.Attach(sw, cfg)
}

// AttachDCTCPMarking installs DCTCP's instantaneous-queue ECN marking
// (threshold k bytes) on every port of sw.
func AttachDCTCPMarking(sw *Switch, k int) { dctcp.AttachMarking(sw, k) }

// DCTCPThreshold returns the paper's marking threshold for a link rate
// (32 KB at 1 Gbps, 65 frames at 10 Gbps).
func DCTCPThreshold(rate Rate) int { return dctcp.KFor(rate) }

// RegisterTransport adds a transport to the registry under name, making
// it dialable through Dialer, selectable with `tfcsim run -proto=<name>`,
// and — when its factory sets Compare — part of the full experiment
// matrix. It panics on a duplicate or empty name, or a nil Dial.
// Out-of-tree example:
//
//	tfcsim.RegisterTransport("myproto", tfcsim.TransportFactory{
//	    Desc: "my experimental transport",
//	    Dial: func(c tfcsim.TransportDialConfig) tfcsim.TransportConn { ... },
//	})
func RegisterTransport(name string, f TransportFactory) {
	transport.Register(name, f)
}

// Protocols returns the names of all registered transports, sorted.
func Protocols() []string { return transport.Names() }

// ProtocolRegistered reports whether name is a registered transport.
func ProtocolRegistered(name string) bool { return transport.Registered(name) }

// AttachTransport installs the named transport's switch-side machinery on
// the given switches (a no-op for host-only transports like TCP), each on
// its own simulator. markRate is the bottleneck link rate protocols with
// rate-derived thresholds use (DCTCP's ECN K). It errors on an unknown
// name, listing the registered ones.
func AttachTransport(name string, switches []*Switch, markRate Rate) error {
	f, err := transport.Lookup(name)
	if err != nil {
		return err
	}
	if f.Attach != nil {
		f.Attach(transport.AttachConfig{Switches: switches, MarkRate: markRate})
	}
	return nil
}
