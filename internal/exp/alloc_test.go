package exp

import (
	"runtime"
	"testing"

	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
	"tfcsim/internal/workload"
)

// TestSteadyStateAllocs is the allocation gate of the experiment path:
// every registered transport, on the star the incast figures run on, must
// settle to (next to) no heap allocation per packet hop once its pools and
// queues have grown — packets recycle, timers re-arm resident targets. A
// per-packet or per-timer-arm allocation anywhere on the path reads two
// orders of magnitude above the bound.
func TestSteadyStateAllocs(t *testing.T) {
	const (
		senders     = 16
		warmRounds  = 2
		gatedRounds = 6
		maxPerHop   = 0.01
	)
	for _, name := range transport.Names() {
		t.Run(name, func(t *testing.T) {
			e, snd, recv, _ := Star(TopoConfig{Proto: Proto(name), Seed: 1}, senders, TestbedRate, TestbedBuf)
			in := workload.NewIncast(workload.IncastConfig{
				Dialer: e.Dialer, Senders: snd, Receiver: recv, BlockBytes: 256 << 10,
			})
			in.Start(5 * sim.Millisecond)
			runTo := func(rounds int) {
				for in.RoundsDone < rounds {
					if e.Sim.Now() > 60*sim.Second {
						t.Fatalf("%d rounds done at %v, want %d", in.RoundsDone, e.Sim.Now(), rounds)
					}
					e.Sim.RunUntil(e.Sim.Now() + sim.Millisecond)
				}
			}
			pktHops := func() (n int64) {
				for _, node := range e.Net.Nodes() {
					for _, p := range node.Ports() {
						n += p.TxPackets
					}
				}
				return n
			}
			runTo(warmRounds)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			h0 := pktHops()
			runTo(warmRounds + gatedRounds)
			runtime.ReadMemStats(&m1)
			hops := pktHops() - h0
			perHop := float64(m1.Mallocs-m0.Mallocs) / float64(hops)
			t.Logf("%d mallocs over %d pkt-hops = %.4f/hop", m1.Mallocs-m0.Mallocs, hops, perHop)
			if perHop > maxPerHop {
				t.Errorf("%.4f allocs per pkt-hop in steady state, want <= %v", perHop, maxPerHop)
			}
		})
	}
}
