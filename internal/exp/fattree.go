package exp

import (
	"fmt"
	"strings"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/stats"
)

// FatTreeEnv is a built k-ary fat-tree (Al-Fares et al., the canonical
// multi-rooted tree of §4.3's "typical topologies ... multi-rooted trees
// with single or multiple paths between two end servers").
type FatTreeEnv struct {
	*Env
	K     int
	Cores []*netsim.Switch
	// Pods[p] = {aggregation switches, edge switches}.
	Aggs  [][]*netsim.Switch
	Edges [][]*netsim.Switch
	// PodHosts[p] lists the (k/2)^2 hosts of pod p.
	PodHosts [][]*netsim.Host
}

// FatTree builds a k-ary fat-tree: (k/2)^2 core switches, k pods each with
// k/2 aggregation and k/2 edge switches, and (k/2)^2 hosts per pod. All
// links share one rate; inter-pod flows have (k/2)^2 equal-cost paths,
// spread by the switches' flow-consistent ECMP hashing.
func FatTree(cfg TopoConfig, k int, rate netsim.Rate, buf int) *FatTreeEnv {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("exp: fat-tree k must be even and >= 2, got %d", k))
	}
	e := newEnv(&cfg)
	half := k / 2
	link := netsim.LinkConfig{
		Rate: rate, Delay: 5 * sim.Microsecond, BufA: buf, BufB: buf,
	}
	ft := &FatTreeEnv{Env: e, K: k}
	// Shard plan (TopoConfig.Shards): group p is pod p, core i joins group
	// i%k, and the k groups fold round-robin onto min(Shards, k) shards.
	// Every boundary link (pod<->core) carries propagation delay, which
	// becomes the parallel engine's lookahead.
	shards := min(cfg.Shards, k)
	var assign []int // each node's shard, in creation (NodeID) order
	place := func(group int) {
		if shards >= 2 {
			assign = append(assign, group%shards)
		}
	}
	for i := 0; i < half*half; i++ {
		core := e.newSwitch(fmt.Sprintf("core%d", i))
		place(i % k)
		ft.Cores = append(ft.Cores, core)
	}
	for p := 0; p < k; p++ {
		var aggs, edges []*netsim.Switch
		for a := 0; a < half; a++ {
			agg := e.newSwitch(fmt.Sprintf("agg%d.%d", p, a))
			place(p)
			aggs = append(aggs, agg)
			// Aggregation switch a connects to cores [a*half, (a+1)*half).
			for c := 0; c < half; c++ {
				e.Net.Connect(agg, ft.Cores[a*half+c], link)
			}
		}
		var hosts []*netsim.Host
		for ed := 0; ed < half; ed++ {
			edge := e.newSwitch(fmt.Sprintf("edge%d.%d", p, ed))
			place(p)
			edges = append(edges, edge)
			for _, agg := range aggs {
				e.Net.Connect(edge, agg, link)
			}
			for hIdx := 0; hIdx < half; hIdx++ {
				h := e.newHost(fmt.Sprintf("h%d.%d.%d", p, ed, hIdx))
				place(p)
				e.Net.Connect(h, edge, netsim.LinkConfig{
					Rate: rate, Delay: 5 * sim.Microsecond, BufB: buf,
				})
				hosts = append(hosts, h)
			}
		}
		ft.Aggs = append(ft.Aggs, aggs)
		ft.Edges = append(ft.Edges, edges)
		ft.PodHosts = append(ft.PodHosts, hosts)
	}
	e.finish(&cfg, rate, assign)
	return ft
}

// PermutationConfig parameterizes the fat-tree permutation experiment
// (beyond-paper extension): every host sends one long flow to a distinct
// host in another pod — the classic worst-case multipath workload. It
// demonstrates that TFC's per-port token allocation composes with ECMP.
type PermutationConfig struct {
	TopoConfig
	K        int
	Rate     netsim.Rate
	BufBytes int
	Duration sim.Time
	Warmup   sim.Time
}

// PermutationResult summarizes the permutation run.
type PermutationResult struct {
	Proto      Proto
	Hosts      int
	AggGoodput float64 // bits/s summed over all flows
	MinFlow    float64 // slowest flow (bits/s)
	MaxFlow    float64
	Drops      int64
	MaxQueue   int    // worst port queue in the fabric
	Events     uint64 // simulator events executed by this trial
}

// SimEvents reports the trial's event count to the runner pool.
func (r PermutationResult) SimEvents() uint64 { return r.Events }

// Permutation runs one protocol over the fat-tree permutation workload.
func Permutation(cfg PermutationConfig) PermutationResult {
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.Rate == 0 {
		cfg.Rate = netsim.Gbps
	}
	if cfg.BufBytes == 0 {
		cfg.BufBytes = TestbedBuf
	}
	if cfg.Duration == 0 {
		cfg.Duration = 300 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Duration / 3
	}
	ft := FatTree(cfg.TopoConfig, cfg.K, cfg.Rate, cfg.BufBytes)
	// Cross-pod permutation: host i of pod p sends to host i of pod p+1.
	var fs []*faucet
	for p := 0; p < ft.K; p++ {
		dstPod := (p + 1) % ft.K
		for i, src := range ft.PodHosts[p] {
			f := newFaucet(ft.Dialer, src, ft.PodHosts[dstPod][i])
			fs = append(fs, f)
			ft.Sim.At(0, f.Start)
		}
	}
	ft.Sim.RunUntil(cfg.Warmup)
	base := make([]int64, len(fs))
	for i, f := range fs {
		base[i] = f.conn.Received()
	}
	ft.Sim.RunUntil(cfg.Duration)
	span := (cfg.Duration - cfg.Warmup).Seconds()
	res := PermutationResult{Proto: cfg.Proto, Hosts: len(fs)}
	res.MinFlow = -1
	for i, f := range fs {
		r := float64(f.conn.Received()-base[i]) * 8 / span
		res.AggGoodput += r
		if res.MinFlow < 0 || r < res.MinFlow {
			res.MinFlow = r
		}
		if r > res.MaxFlow {
			res.MaxFlow = r
		}
	}
	for _, sw := range ft.Switches {
		for _, p := range sw.Ports() {
			res.Drops += p.Drops
			if p.MaxQueue > res.MaxQueue {
				res.MaxQueue = p.MaxQueue
			}
		}
	}
	res.Events = ft.Sim.Executed()
	return res
}

// FormatPermutation renders the fat-tree permutation comparison.
func FormatPermutation(rs []PermutationResult) string {
	t := stats.Table{
		Title: "Fat-tree permutation (beyond-paper: TFC over ECMP multipath)",
		Header: []string{"proto", "hosts", "agg goodput(Mbps)", "min flow(Mbps)",
			"max flow(Mbps)", "drops", "max queue(KB)"},
	}
	for _, r := range rs {
		t.AddRow(string(r.Proto), fmt.Sprint(r.Hosts), stats.Mbps(r.AggGoodput),
			stats.Mbps(r.MinFlow), stats.Mbps(r.MaxFlow),
			fmt.Sprint(r.Drops), stats.F(float64(r.MaxQueue)/1024, 1))
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("expected: TFC near per-host line rate with ~zero queues wherever ECMP spreads flows evenly; hash collisions bound the unlucky flows' share for every protocol\n")
	return b.String()
}
