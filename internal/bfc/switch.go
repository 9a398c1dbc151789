package bfc

import (
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// Fixed switch-side constants. The pause threshold is a handful of frames —
// BFC reacts to per-flow queue build-up, not to deep standing queues —
// and the resume threshold at half of it gives the sender time to restart
// before the flow's backlog fully drains.
const (
	PauseBytes  = 8 << 10
	ResumeBytes = 4 << 10
	RefreshGap  = 50 * sim.Microsecond
	// defaultPortPause is the aggregate-occupancy pressure threshold for
	// ports with unlimited buffers.
	defaultPortPause = 128 << 10
)

// pendingDrain is one counted frame awaiting its predicted departure.
type pendingDrain struct {
	flow netsim.FlowID
	fb   int64
}

type flowState struct {
	gate FlowGate
	src  netsim.NodeID // flow source, the XOF/XON destination
}

// Hook implements per-flow backpressure at one switch output port. It
// tracks each flow's occupancy by counting admitted arrivals and
// predicting their departures (a FIFO at the port's current rate), and
// originates XOF/XON control packets toward flow sources through the
// switch's normal forwarding path.
//
// The substrate's ports are shared FIFOs, not the per-flow queues of the
// real BFC design, so occupancy here is bookkeeping alongside the queue
// rather than dedicated queue depth; predicted drains self-correct after
// a link blackout because the gate clamps at zero.
type Hook struct {
	sim  *sim.Simulator
	sw   *netsim.Switch
	port *netsim.Port

	flows map[netsim.FlowID]*flowState
	// free holds the records drain took out of flows. On an uncongested
	// port a flow's occupancy returns to zero behind every frame, so without
	// it each data packet would allocate a record.
	free      []*flowState
	total     int64    // tracked occupancy across all flows (bytes)
	portPause int64    // aggregate pressure threshold
	drainFree sim.Time // predicted time the last counted byte leaves

	// drainQ holds the counted frames whose predicted departure is still
	// ahead. The hook is the target of one drain event per frame;
	// drainFree only moves forward, so those events fire in push order and
	// each one pops the oldest.
	drainQ netsim.FIFO[pendingDrain]
}

// AttachSwitch installs BFC backpressure hooks on every port of sw,
// running on the switch's own simulator, and returns them in port order.
func AttachSwitch(sw *netsim.Switch) []*Hook {
	var hooks []*Hook
	for _, p := range sw.Ports() {
		pp := int64(defaultPortPause)
		if p.BufBytes > 0 {
			pp = int64(p.BufBytes) / 2
		}
		h := &Hook{
			sim: sw.Sim(), sw: sw, port: p,
			flows:     make(map[netsim.FlowID]*flowState),
			portPause: pp,
		}
		p.Hook = h
		hooks = append(hooks, h)
	}
	return hooks
}

// Port returns the port this hook is attached to.
func (h *Hook) Port() *netsim.Port { return h.port }

// FlowOcc returns the tracked occupancy of one flow (0 if untracked).
func (h *Hook) FlowOcc(flow netsim.FlowID) int64 {
	if fs := h.flows[flow]; fs != nil {
		return fs.gate.Occ()
	}
	return 0
}

// OnEnqueue implements netsim.PortHook: count the arrival, signal XOF on
// threshold crossing, and schedule the predicted departure. It never
// drops — admission stays with the port's drop-tail check.
func (h *Hook) OnEnqueue(pkt *netsim.Packet, port *netsim.Port) bool {
	if pkt.Payload == 0 {
		return true // ACKs and XOF/XON control traffic are never gated
	}
	fb := pkt.FrameBytes()
	if port.BufBytes > 0 && port.QueueBytes()+fb > port.BufBytes {
		// Drop-tail will reject this packet right after the hook returns;
		// counting it would leak occupancy that never drains.
		return true
	}
	now := h.sim.Now()
	fs := h.flows[pkt.Flow]
	if fs == nil {
		if k := len(h.free) - 1; k >= 0 {
			fs, h.free = h.free[k], h.free[:k]
		} else {
			//tfcvet:allow hotalloc — free-list miss: drain returns every untracked flow's state, so this runs once per concurrently tracked flow
			fs = new(flowState)
		}
		*fs = flowState{gate: FlowGate{Pause: PauseBytes, Resume: ResumeBytes, RefreshGap: RefreshGap}}
		h.flows[pkt.Flow] = fs
	}
	fs.src = pkt.Src
	h.total += int64(fb)
	if fs.gate.Add(int64(fb), now, h.total >= h.portPause) {
		h.signal(pkt.Flow, fs.src, netsim.FlagXOF)
	}
	// Predict the departure of this frame: the counted backlog serializes
	// FIFO at the port's rate. The prediction ignores link-down
	// intervals; the error only shifts when the drain event fires, and
	// occupancy clamps at zero either way.
	if h.drainFree < now {
		h.drainFree = now
	}
	h.drainFree += port.Rate.TxTime(pkt.WireBytes())
	h.drainQ.Push(pendingDrain{pkt.Flow, int64(fb)})
	h.sim.Schedule(h.drainFree, h)
	return true
}

// RunEvent implements sim.EventTarget: the oldest counted frame's predicted
// departure.
func (h *Hook) RunEvent() {
	d := h.drainQ.Pop()
	h.drain(d.flow, d.fb)
}

func (h *Hook) drain(flow netsim.FlowID, fb int64) {
	h.total -= fb
	if h.total < 0 {
		h.total = 0
	}
	fs := h.flows[flow]
	if fs == nil {
		return
	}
	if fs.gate.Drain(fb) {
		h.signal(flow, fs.src, netsim.FlagXON)
	}
	if fs.gate.Occ() == 0 && !fs.gate.Paused() {
		delete(h.flows, flow) // bound state under flow churn
		//tfcvet:allow hotalloc — free-list push: OnEnqueue popped with truncation, so this append reuses the retained capacity (grows to the most flows the port ever tracked at once)
		h.free = append(h.free, fs)
	}
}

// signal originates an XOF or XON control packet at the switch, routed
// toward the flow's source like any other packet (so it shares fate with
// the reverse path: losable, delayable — the sender's pause timeout and
// the gate's refresh XOFs cover both). One with no route drops at the
// signalling port.
func (h *Hook) signal(flow netsim.FlowID, dst netsim.NodeID, flag netsim.Flag) {
	if pr := h.port.Network().Probe; pr != nil {
		ev := netsim.Event{Kind: netsim.EvPause, At: h.sim.Now(), Port: h.port, Flow: flow}
		if flag == netsim.FlagXOF {
			ev.A = 1
		}
		pr.Observe(ev)
	}
	p := h.port.NewPacket()
	*p = netsim.Packet{
		Flow: flow, Src: h.sw.ID(), Dst: dst,
		Flags:  flag | netsim.FlagACK,
		SentAt: h.sim.Now(), Window: netsim.WindowUnset,
	}
	h.sw.Receive(p, h.port)
}
