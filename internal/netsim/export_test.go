package netsim

// PktSlab is the packet-pool growth quantum.
const PktSlab = pktSlab

// ArmPoolCheck arms the pool-misuse detector (see poolCheck) for networks
// built from now on; the returned func disarms it.
func ArmPoolCheck() (disarm func()) {
	poolCheck = true
	return func() { poolCheck = false }
}

// PoolShard is one shard's packet-pool state: the free-list length, and
// the packets the shard owns now and owned at most.
type PoolShard struct{ Free, Live, PeakLive int }

// PoolShards returns the pool state of every shard.
func (n *Network) PoolShards() []PoolShard {
	out := make([]PoolShard, len(n.shards))
	for i, sh := range n.shards {
		out[i] = PoolShard{Free: len(sh.pktFree), Live: sh.live, PeakLive: sh.peakLive}
	}
	return out
}
