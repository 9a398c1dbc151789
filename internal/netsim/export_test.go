package netsim

import "math/rand"

// PktSlab is the packet-pool growth quantum.
const PktSlab = pktSlab

// ArmPoolCheck arms the pool-misuse detector (see poolCheck) for networks
// built from now on; the returned func disarms it.
func ArmPoolCheck() (disarm func()) {
	poolCheck = true
	return func() { poolCheck = false }
}

// PoolShard is one shard's pool state: the packet free-list length, the
// packets the shard owns now and owned at most, the delivery-carrier
// free-list length, and the packets released while the pool check was
// armed.
type PoolShard struct{ Free, Live, PeakLive, FreeRx, Released int }

// PoolShards returns the pool state of every shard.
func (n *Network) PoolShards() []PoolShard {
	out := make([]PoolShard, len(n.shards))
	for i, sh := range n.shards {
		out[i] = PoolShard{Free: len(sh.pktFree), Live: sh.live, PeakLive: sh.peakLive, FreeRx: len(sh.rxFree), Released: sh.released}
	}
	return out
}

// UniformLoss is a LossModel that loses each packet with probability p:
// one draw per packet from the port's loss stream.
type UniformLoss float64

func (p UniformLoss) Lose(r *rand.Rand) bool { return r.Float64() < float64(p) }

// Loss returns the port's installed wire-loss model.
func (p *Port) Loss() LossModel { return p.loss }

// AlwaysBad returns a Gilbert–Elliott chain pinned in the bad state
// (pgb=1, pbg=0): it loses every packet from the first draw on.
func AlwaysBad() *GilbertElliott { return &GilbertElliott{pgb: 1} }
