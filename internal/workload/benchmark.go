package workload

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// BenchmarkConfig describes the web-search benchmark of §6.1.2/§6.2.2:
// Poisson query arrivals, each fanning in small responses from many
// servers to one aggregator, over Poisson background flows whose sizes
// follow the DCTCP web-search distribution.
type BenchmarkConfig struct {
	Dialer *Dialer
	Hosts  []*netsim.Host
	// Duration is how long new flows keep arriving.
	Duration sim.Time
	// QueryRate is the aggregate query arrival rate (queries/second).
	QueryRate float64
	// QueryFanIn is the number of responders per query (0 = all other hosts).
	QueryFanIn int
	// BgFlowRate is the aggregate background flow arrival rate (flows/second).
	BgFlowRate float64
}

// FlowRecord is the outcome of one benchmark flow.
type FlowRecord struct {
	Bytes    int64
	Start    sim.Time
	FCT      sim.Time
	Query    bool
	Done     bool
	Timeouts int64
}

// Benchmark drives the workload and collects per-flow records.
type Benchmark struct {
	cfg BenchmarkConfig
	// Flows holds one record per generated flow (query responses and
	// background flows alike).
	Flows []*FlowRecord
}

// NewBenchmark prepares a generator.
func NewBenchmark(cfg BenchmarkConfig) *Benchmark {
	return &Benchmark{cfg: cfg}
}

// Start schedules the Poisson arrival processes.
func (b *Benchmark) Start() {
	s := b.cfg.Dialer.Sim
	if b.cfg.QueryRate > 0 {
		b.scheduleNext(s, b.cfg.QueryRate, b.launchQuery)
	}
	if b.cfg.BgFlowRate > 0 {
		b.scheduleNext(s, b.cfg.BgFlowRate, b.launchBackground)
	}
}

func (b *Benchmark) scheduleNext(s *sim.Simulator, rate float64, launch func()) {
	gap := sim.Time(s.Rand.ExpFloat64() / rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	s.After(gap, func() {
		if s.Now() >= b.cfg.Duration {
			return
		}
		launch()
		b.scheduleNext(s, rate, launch)
	})
}

// queryBytes is the per-responder query response size (§6.1.2: 2 KB).
const queryBytes = 2 << 10

// launchQuery picks an aggregator and fans in queryBytes from responders.
func (b *Benchmark) launchQuery() {
	s := b.cfg.Dialer.Sim
	hosts := b.cfg.Hosts
	agg := hosts[s.Rand.Intn(len(hosts))]
	fan := b.cfg.QueryFanIn
	if fan <= 0 || fan > len(hosts)-1 {
		fan = len(hosts) - 1
	}
	// Choose fan responders distinct from the aggregator.
	perm := s.Rand.Perm(len(hosts))
	n := 0
	for _, i := range perm {
		if hosts[i] == agg {
			continue
		}
		b.launchFlow(hosts[i], agg, queryBytes, true)
		n++
		if n == fan {
			break
		}
	}
}

// bgFlowSizes samples background flow sizes: the web-search distribution.
var bgFlowSizes = WebSearchFlowSizes()

func (b *Benchmark) launchBackground() {
	s := b.cfg.Dialer.Sim
	hosts := b.cfg.Hosts
	src := hosts[s.Rand.Intn(len(hosts))]
	dst := hosts[s.Rand.Intn(len(hosts))]
	for dst == src {
		dst = hosts[s.Rand.Intn(len(hosts))]
	}
	size := int64(bgFlowSizes.Sample(s.Rand))
	if size < 1 {
		size = 1
	}
	b.launchFlow(src, dst, size, false)
}

func (b *Benchmark) launchFlow(src, dst *netsim.Host, size int64, query bool) {
	rec := &FlowRecord{Bytes: size, Start: b.cfg.Dialer.Sim.Now(), Query: query}
	b.Flows = append(b.Flows, rec)
	var conn *Conn
	conn = b.cfg.Dialer.Dial(src, dst, nil, func() {
		st := conn.Sender.Stats()
		rec.FCT = st.FCT()
		rec.Timeouts = st.Timeouts
		rec.Done = true
	})
	conn.Sender.Open()
	conn.Sender.Send(size)
	conn.Sender.Close()
}

// DoneFraction reports the fraction of generated flows that completed.
func (b *Benchmark) DoneFraction() float64 {
	if len(b.Flows) == 0 {
		return 1
	}
	done := 0
	for _, f := range b.Flows {
		if f.Done {
			done++
		}
	}
	return float64(done) / float64(len(b.Flows))
}
