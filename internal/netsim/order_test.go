package netsim_test

import (
	"fmt"
	"slices"
	"testing"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// arrival is one EvDeliver at the receiver: when, from which sender (its
// index, which is also its port's creation order), which frame.
type arrival struct {
	at  sim.Time
	src int
	seq int64
}

// deliverLog keeps the EvDeliver records only. Every delivery to the one
// receiver runs on the receiver's shard, so the log has a single writer in
// a partitioned network too.
type deliverLog struct{ got []arrival }

func (l *deliverLog) Observe(ev netsim.Event) {
	if ev.Kind == netsim.EvDeliver {
		l.got = append(l.got, arrival{ev.At, int(ev.Pkt.Src) - 1, ev.Pkt.Seq})
	}
}

const (
	orderSenders = 4
	orderFrames  = 40
	orderDelay   = 5 * sim.Microsecond
)

// orderFrameTime is one frame's serialization time at the initial rate.
var orderFrameTime = netsim.Gbps.TxTime((&netsim.Packet{Payload: netsim.MSS}).WireBytes())

// orderLinkDelay gives sender 2 a cable one frame time longer than the
// others': its frame k lands with their frame k+1, with a different delay
// and an earlier schedule instant.
func orderLinkDelay(src int) sim.Time {
	if src == 2 {
		return orderDelay + orderFrameTime
	}
	return orderDelay
}

// runDeliveryOrder wires four senders straight to one receiver, has each
// send the same burst of equal frames at t=0 — so their ports finish
// serializing, and deliver, at the same instants — and halves sender 1's
// rate ten and a bit frame times in: from then on each of its frames lands
// with every second frame of the others. shards is 1 (sequential) or 2:
// then the receiver shares a shard with senders 1 and 3, and the
// deliveries of senders 0 and 2 arrive through the group mailbox.
func runDeliveryOrder(t *testing.T, shards int) []arrival {
	t.Helper()
	s := sim.New(1)
	net := netsim.NewNetwork(s)
	log := &deliverLog{}
	net.Probe = log
	recv := net.NewHost("recv")
	recv.Register(1, &sink{})
	var src [orderSenders]*netsim.Host
	for i := range src {
		src[i] = net.NewHost(fmt.Sprintf("s%d", i))
		net.Connect(src[i], recv, netsim.LinkConfig{Rate: netsim.Gbps, Delay: orderLinkDelay(i)})
	}
	if shards == 2 {
		if err := net.Partition([]int{1, 0, 1, 0, 1}, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range src {
		h.Sim().At(0, func() {
			for k := 0; k < orderFrames; k++ {
				p := h.NewPacket()
				*p = netsim.Packet{Flow: 1, Src: h.ID(), Dst: recv.ID(), Seq: int64(k), Payload: netsim.MSS}
				h.Send(p)
			}
		})
	}
	s.At(10*orderFrameTime+1, func() { src[1].NIC().Rate = netsim.Gbps / 2 })
	s.Run()
	return log.got
}

// TestDeliveryOrder: a port's deliveries are separate pooled events, so
// the order frames reach a node in is a property of the engine's (time,
// schedule instant, rank, seq) key alone: one port's frames in
// serialization order, simultaneous arrivals by schedule instant and then
// port creation order — the same on the sequential engine and across
// shards, through a mid-run rate change.
func TestDeliveryOrder(t *testing.T) {
	seq := runDeliveryOrder(t, 1)
	if len(seq) != orderSenders*orderFrames {
		t.Fatalf("%d deliveries, want %d", len(seq), orderSenders*orderFrames)
	}
	// The key, written out: a frame was scheduled for delivery when its
	// serialization finished, one link delay before it arrived.
	want := slices.Clone(seq)
	slices.SortStableFunc(want, func(a, b arrival) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if sa, sb := a.at-orderLinkDelay(a.src), b.at-orderLinkDelay(b.src); sa != sb {
			return int(sa - sb)
		}
		if a.src != b.src {
			return a.src - b.src
		}
		return int(a.seq - b.seq)
	})
	if i := firstDiff(seq, want); i >= 0 {
		t.Errorf("deliveries are not in (time, schedule instant, port, frame) order: #%d is %+v, want %+v", i, seq[i], want[i])
	}
	// The scenario must keep its premise: many instants at which three or
	// more ports deliver at once, before and after the rate change.
	var next [orderSenders]int64
	crowdedBefore, crowdedAfter := 0, 0
	for i := 0; i < len(seq); {
		j := i
		for ; j < len(seq) && seq[j].at == seq[i].at; j++ {
			if a := seq[j]; a.seq != next[a.src] {
				t.Fatalf("sender %d: frame %d delivered when %d was due", a.src, a.seq, next[a.src])
			} else {
				next[a.src]++
			}
		}
		if j-i >= 3 {
			if seq[i].at < 12*orderFrameTime {
				crowdedBefore++
			} else {
				crowdedAfter++
			}
		}
		i = j
	}
	if crowdedBefore < 5 || crowdedAfter < 5 {
		t.Errorf("instants with >= 3 simultaneous deliveries: %d before the rate change, %d after; want >= 5 each",
			crowdedBefore, crowdedAfter)
	}
	sharded := runDeliveryOrder(t, 2)
	if len(sharded) != len(seq) {
		t.Fatalf("2 shards: %d deliveries, sequential %d", len(sharded), len(seq))
	}
	if i := firstDiff(sharded, seq); i >= 0 {
		t.Errorf("2-shard delivery order differs from sequential: #%d is %+v, want %+v", i, sharded[i], seq[i])
	}
}

// firstDiff returns the first index at which two equally long logs differ,
// or -1.
func firstDiff(a, b []arrival) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
