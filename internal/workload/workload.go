// Package workload generates the traffic patterns of TFC's evaluation:
// barrier-synchronized incast (Figs 12, 15), the web-search benchmark with
// query fan-in plus background flows drawn from the DCTCP measurement
// distributions (Figs 13, 16), and empirical flow-size sampling.
package workload

import (
	"fmt"
	"math/rand"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"

	// The built-in transports self-register with the transport registry;
	// importing the workload layer is what links them into a binary.
	_ "tfcsim/internal/bfc"
	_ "tfcsim/internal/core"
	_ "tfcsim/internal/credit"
	_ "tfcsim/internal/dctcp"
	_ "tfcsim/internal/tcp"
	_ "tfcsim/internal/tinytcp"
)

// Proto names a registered transport (a transport registry key).
type Proto string

// Names of the built-in transports.
const (
	TFC     Proto = "tfc"
	TCP     Proto = "tcp"
	DCTCP   Proto = "dctcp"
	CREDIT  Proto = "credit" // ExpressPass-style receiver-driven credits
	BFC     Proto = "bfc"    // per-hop per-flow backpressure
	TINYTCP Proto = "tinytcp"
)

// Conn couples a protocol-agnostic sender with its receiver-side byte
// counter.
type Conn struct {
	Flow     netsim.FlowID
	Sender   transport.Sender
	Received func() int64
	// SRTT returns the sender's smoothed RTT estimate.
	SRTT func() sim.Time
}

// Dialer creates connections of a chosen protocol with shared parameters.
// The protocol is resolved through the transport registry, so a Dialer
// works with any registered transport — in-tree or out-of-tree — without
// modification.
type Dialer struct {
	Sim    *sim.Simulator
	Proto  Proto
	MinRTO sim.Time
	IDs    transport.IDGen
	// Probe, if set, supplies the sender-side probe for a given protocol
	// name (nil leaves that protocol's senders unobserved).
	Probe func(proto string) netsim.Probe
}

// Dial wires a (src -> dst) connection. onDrain fires whenever all queued
// bytes are acknowledged; onComplete once after Close. Unknown protocol
// names panic with the registered alternatives (misconfiguration is a
// programming error at this layer; cmd front-ends validate names first).
func (d *Dialer) Dial(src, dst *netsim.Host, onDrain, onComplete func()) *Conn {
	f, err := transport.Lookup(string(d.Proto))
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	flow := d.IDs.Next()
	var probe netsim.Probe
	if d.Probe != nil {
		probe = d.Probe(string(d.Proto))
	}
	// The sender runs on the source host's simulator (its shard, once the
	// network is partitioned); transports bind their receiver side to the
	// peer host's simulator themselves.
	c := f.Dial(transport.DialConfig{
		Sim: src.Sim(), Local: src, Peer: dst, Flow: flow,
		MinRTO:  d.MinRTO,
		OnDrain: onDrain, OnComplete: onComplete, Probe: probe,
	})
	return &Conn{Flow: flow, Sender: c.Sender, Received: c.Received, SRTT: c.SRTT}
}

// IncastConfig describes a barrier-synchronized incast workload: a
// receiver repeatedly requests a data block from every sender and issues
// the next request only after all blocks of the round arrived (paper §6,
// "Bursty Fan-in traffic", following Vasudevan et al. [36]).
type IncastConfig struct {
	Dialer     *Dialer
	Senders    []*netsim.Host
	Receiver   *netsim.Host
	BlockBytes int64
	// Rounds caps the number of rounds (0 = unlimited).
	Rounds int
}

// Incast runs the incast pattern and accumulates its metrics.
type Incast struct {
	cfg     IncastConfig
	conns   []*Conn
	pending int
	// RoundsDone counts completed barrier rounds.
	RoundsDone int
	// RoundTimes records each round's completion duration.
	RoundTimes []sim.Time
	roundBegan sim.Time
	started    bool
}

// NewIncast opens the persistent connections (handshake + window
// acquisition happen immediately) and schedules the first round.
func NewIncast(cfg IncastConfig) *Incast {
	in := &Incast{cfg: cfg}
	for _, h := range cfg.Senders {
		in.conns = append(in.conns, cfg.Dialer.Dial(h, cfg.Receiver, in.onDrain, nil))
	}
	return in
}

// Start opens all connections and begins round 1 after a short settle
// period (covering handshakes).
func (in *Incast) Start(settle sim.Time) {
	s := in.cfg.Dialer.Sim
	for _, c := range in.conns {
		c.Sender.Open()
	}
	s.After(settle, in.startRound)
}

// requestDelay models the receiver's request propagation before a round
// starts.
const requestDelay = 50 * sim.Microsecond

func (in *Incast) startRound() {
	if in.cfg.Rounds > 0 && in.RoundsDone >= in.cfg.Rounds {
		return
	}
	s := in.cfg.Dialer.Sim
	in.started = true
	s.After(requestDelay, func() {
		in.roundBegan = s.Now()
		in.pending = len(in.conns)
		for _, c := range in.conns {
			c.Sender.Send(in.cfg.BlockBytes)
		}
	})
}

func (in *Incast) onDrain() {
	if !in.started || in.pending == 0 {
		return
	}
	in.pending--
	if in.pending == 0 {
		s := in.cfg.Dialer.Sim
		in.RoundsDone++
		in.RoundTimes = append(in.RoundTimes, s.Now()-in.roundBegan)
		in.startRound()
	}
}

// BytesReceived sums receiver-side in-order bytes over all connections.
func (in *Incast) BytesReceived() int64 {
	var n int64
	for _, c := range in.conns {
		n += c.Received()
	}
	return n
}

// TotalTimeouts sums RTO expirations over all senders.
func (in *Incast) TotalTimeouts() int64 {
	var n int64
	for _, c := range in.conns {
		n += c.Sender.Stats().Timeouts
	}
	return n
}

// MaxTimeoutsPerBlock returns the maximum over flows of timeouts divided
// by completed rounds (the paper's Fig 15b metric).
func (in *Incast) MaxTimeoutsPerBlock() float64 {
	if in.RoundsDone == 0 {
		return 0
	}
	var maxTO int64
	for _, c := range in.conns {
		if to := c.Sender.Stats().Timeouts; to > maxTO {
			maxTO = to
		}
	}
	return float64(maxTO) / float64(in.RoundsDone)
}

// EmpiricalDist is an inverse-transform sampler over a piecewise-linear CDF.
type EmpiricalDist struct {
	x   []float64 // values, ascending
	cdf []float64 // cumulative probability at x, ascending, last = 1
}

// NewEmpirical builds a distribution from (value, cdf) points. The first
// point's cdf may exceed 0 (mass at the minimum); the last must be 1.
func NewEmpirical(points [][2]float64) *EmpiricalDist {
	d := &EmpiricalDist{}
	for _, p := range points {
		d.x = append(d.x, p[0])
		d.cdf = append(d.cdf, p[1])
	}
	if len(d.x) < 2 || d.cdf[len(d.cdf)-1] != 1 {
		panic("workload: invalid empirical distribution")
	}
	return d
}

// Sample draws one value.
func (d *EmpiricalDist) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	// Find first cdf >= u.
	lo := 0
	for lo < len(d.cdf) && d.cdf[lo] < u {
		lo++
	}
	if lo == 0 {
		return d.x[0]
	}
	if lo >= len(d.x) {
		return d.x[len(d.x)-1]
	}
	// Linear interpolation within the segment.
	c0, c1 := d.cdf[lo-1], d.cdf[lo]
	if c1 == c0 {
		return d.x[lo]
	}
	frac := (u - c0) / (c1 - c0)
	return d.x[lo-1] + frac*(d.x[lo]-d.x[lo-1])
}

// Mean returns the distribution mean (piecewise-linear integral).
func (d *EmpiricalDist) Mean() float64 {
	var m float64
	prevC := 0.0
	for i := range d.x {
		var mid float64
		if i == 0 {
			mid = d.x[0]
		} else {
			mid = (d.x[i-1] + d.x[i]) / 2
		}
		m += mid * (d.cdf[i] - prevC)
		prevC = d.cdf[i]
	}
	return m
}

// WebSearchFlowSizes returns the background flow-size distribution of the
// web-search workload measured in the DCTCP paper [7] (sizes in bytes),
// the distribution TFC's benchmark traffic is generated from.
func WebSearchFlowSizes() *EmpiricalDist {
	kb := 1024.0
	return NewEmpirical([][2]float64{
		{0.5 * kb, 0.0}, {1 * kb, 0.02}, {2 * kb, 0.07}, {3 * kb, 0.15},
		{5 * kb, 0.3}, {7 * kb, 0.45}, {10 * kb, 0.53}, {20 * kb, 0.6},
		{30 * kb, 0.65}, {50 * kb, 0.7}, {80 * kb, 0.75}, {200 * kb, 0.81},
		{500 * kb, 0.88}, {1000 * kb, 0.92}, {2000 * kb, 0.95},
		{5000 * kb, 0.98}, {10000 * kb, 0.995}, {30000 * kb, 1.0},
	})
}

// SizeBuckets are the paper's background-FCT buckets (Figs 13b, 16b).
var SizeBuckets = []struct {
	Label string
	Max   int64 // exclusive upper bound in bytes
}{
	{"<1KB", 1 << 10},
	{"1-10KB", 10 << 10},
	{"10KB-100KB", 100 << 10},
	{"100KB-1MB", 1 << 20},
	{"1-10MB", 10 << 20},
	{">10MB", 1 << 62},
}

// BucketIndex returns the index of the size bucket for n bytes.
func BucketIndex(n int64) int {
	for i, b := range SizeBuckets {
		if n < b.Max {
			return i
		}
	}
	return len(SizeBuckets) - 1
}
