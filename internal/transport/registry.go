package transport

import (
	"fmt"
	"sort"
	"strings"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// DialConfig carries the protocol-independent parameters of one
// connection. Protocol packages embed it in their own Config next to
// their protocol-only knobs.
type DialConfig struct {
	Sim   *sim.Simulator
	Local *netsim.Host // sender side
	Peer  *netsim.Host // receiver side
	Flow  netsim.FlowID

	MSS    int      // 0 selects DefaultMSS
	MinRTO sim.Time // 0 selects DefaultMinRTO

	// OnDrain fires whenever all currently queued bytes are acknowledged;
	// OnComplete once after Close.
	OnDrain    func()
	OnComplete func()

	// Probe, if set, receives the connection's sender-side records (RTO
	// firings, retransmissions, window and recovery moves, credit-rate
	// moves). It is per dial, not read off the network's tap, so a harness
	// can leave one protocol's senders unobserved. Disabled path is one
	// nil-check per event.
	Probe netsim.Probe
}

// FillDefaults sets the zero-valued knobs to their defaults.
func (c *DialConfig) FillDefaults() {
	if c.MSS == 0 {
		c.MSS = DefaultMSS
	}
	if c.MinRTO == 0 {
		c.MinRTO = DefaultMinRTO
	}
}

// Conn is the protocol-agnostic result of a Factory's Dial.
type Conn struct {
	Sender Sender
	// Received returns the receiver's cumulative in-order byte count.
	Received func() int64
	// SRTT returns the sender's smoothed RTT estimate.
	SRTT func() sim.Time
}

// AttachConfig parameterizes a Factory's switch-side attachment. The
// harness calls Attach once per built topology, after routes are
// computed and before any traffic flows.
type AttachConfig struct {
	Sim      *sim.Simulator
	Switches []*netsim.Switch
	// MarkRate is the bottleneck link rate, for rate-derived thresholds
	// (DCTCP's K, BFC's drain model).
	MarkRate netsim.Rate
	// Knobs is the protocol's switch-side configuration (e.g. a
	// *core.SwitchConfig for TFC); nil selects the factory defaults.
	// Factories type-assert and must tolerate nil or foreign types.
	Knobs any
}

// Factory bundles everything the harness needs to run one transport:
// a connection constructor, an optional switch-side attachment (port
// hooks, shapers, token state), and default knobs. Protocol packages
// register a Factory in their init; workload.Dialer, the experiment
// topology builders and the CLIs then compose any registered transport
// with any experiment, fault schedule, and telemetry probe by name.
type Factory struct {
	// Desc is a one-line description for listings.
	Desc string
	// Compare includes the protocol in the default head-to-head matrix
	// (exp.AllProtos): the figure, incast, churn, and robustness sweeps
	// iterate every comparable transport.
	Compare bool
	// Dial creates one connection (sender and receiver registered at
	// their hosts). Required.
	Dial func(DialConfig) Conn
	// Attach installs the protocol's switch-side machinery on every
	// switch of a topology. Nil for host-only protocols. The return
	// value is opaque per-environment state (e.g. TFC's per-switch
	// token tables) handed back to the harness for inspection.
	Attach func(AttachConfig) any
}

var factories = map[string]Factory{}

// Register adds a transport under name. It panics on a duplicate name,
// an empty name, or a nil Dial — registration happens in package inits,
// where a broken registry is a programming error, not a runtime
// condition.
func Register(name string, f Factory) {
	if name == "" {
		panic("transport: Register with empty name")
	}
	if f.Dial == nil {
		panic(fmt.Sprintf("transport: Register(%q) with nil Dial", name))
	}
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("transport: Register called twice for %q", name))
	}
	factories[name] = f
}

// Lookup resolves a registered transport. The error for an unknown name
// lists every registered protocol, sorted.
func Lookup(name string) (Factory, error) {
	f, ok := factories[name]
	if !ok {
		return Factory{}, fmt.Errorf("transport: unknown protocol %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f, nil
}

// Registered reports whether name is a registered transport.
func Registered(name string) bool {
	_, ok := factories[name]
	return ok
}

// Names returns every registered protocol name, sorted for determinism.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CompareNames returns the sorted names of the transports marked for the
// default head-to-head comparison matrix.
func CompareNames() []string {
	var out []string
	for n, f := range factories {
		if f.Compare {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
