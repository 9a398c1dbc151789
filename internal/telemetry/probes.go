package telemetry

import (
	"fmt"
	"sort"

	"tfcsim/internal/bfc"
	"tfcsim/internal/core"
	"tfcsim/internal/faults"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
	"tfcsim/internal/transport"
)

// flowName formats the per-flow track/event label.
func flowName(prefix string, f netsim.FlowID) string {
	return fmt.Sprintf("%s f%d", prefix, f)
}

// portKey is a unique, deterministic per-port metric/track suffix.
// Labels alone can collide (topology builders reuse node names, e.g.
// every testbed host is "H"); node IDs cannot.
func portKey(p *netsim.Port) string {
	return fmt.Sprintf("%s#%d-%d", p.Label, p.Owner.ID(), p.Peer.ID())
}

// flowLabelKey keys the per-trial label cache. Probes that fire per
// ACK or per slot would otherwise Sprintf the same handful of labels
// millions of times.
type flowLabelKey struct {
	prefix string
	flow   netsim.FlowID
}

// flowLabel is the caching form of flowName. Only formats once per
// (prefix, flow); lookups allocate nothing. Goroutine-safe: probes call
// it from shard goroutines in a partitioned network.
func (t *Trial) flowLabel(prefix string, f netsim.FlowID) string {
	k := flowLabelKey{prefix, f}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.flowLabels[k]; ok {
		return s
	}
	if t.flowLabels == nil {
		t.flowLabels = make(map[flowLabelKey]string)
	}
	s := flowName(prefix, f)
	t.flowLabels[k] = s
	return s
}

// portLabel is the caching form of portKey. Keyed by port pointer —
// lookup only, never iterated, so determinism is unaffected.
// Goroutine-safe like flowLabel.
func (t *Trial) portLabel(p *netsim.Port) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.portLabels[p]; ok {
		return s
	}
	if t.portLabels == nil {
		t.portLabels = make(map[*netsim.Port]string)
	}
	s := portKey(p)
	t.portLabels[p] = s
	return s
}

// --- netsim: forwarding path ---

type flowTrack struct {
	start sim.Time
	bytes int64
	pkts  int64
}

// netProbe implements netsim.Probe: forwarding-path counters, per-drop
// instants, link-down spans, and flow-lifetime spans derived from the
// sender NIC (first data-direction packet opens the flow, FIN closes
// it). It copies packet fields and retains no pointers. Timestamps come
// from the observed port's own simulator (its shard clock), never the
// trial's control clock; the shared maps are guarded by the trial mutex
// because shard goroutines fire these callbacks concurrently.
type netProbe struct {
	t                      *Trial
	enq, deq, drops, dropB *Counter
	flows                  map[netsim.FlowID]*flowTrack
	downAt                 map[string]sim.Time
	// qdepth holds the per-switch-port dequeue-depth histograms (engine
	// self-profiling): each service completion observes the queue length
	// left behind. Keyed by port pointer — lookup only, never iterated.
	qdepth map[*netsim.Port]*Hist
}

func (p *netProbe) ensure() {
	if p.flows != nil {
		return
	}
	p.enq = p.t.Counter("net.enq_pkts")
	p.deq = p.t.Counter("net.deq_pkts")
	p.drops = p.t.Counter("net.drops")
	p.dropB = p.t.Counter("net.drop_bytes")
	p.flows = make(map[netsim.FlowID]*flowTrack)
	p.downAt = make(map[string]sim.Time)
	p.qdepth = make(map[*netsim.Port]*Hist)
}

func (p *netProbe) PortEnqueue(port *netsim.Port, pkt *netsim.Packet) {
	p.enq.Inc()
	if h := p.t.hooks; h != nil && h.Net != nil {
		h.Net.PortEnqueue(port, pkt)
	}
	if _, isHost := port.Owner.(*netsim.Host); !isHost || pkt.Flags&netsim.FlagACK != 0 {
		return
	}
	now := port.Sim().Now()
	// Sender-NIC data direction: track the flow's lifetime exactly once
	// per packet (every other hop would double-count). A given flow only
	// ever enqueues at its own sender NIC, so the two-step below (map
	// mutation under the lock, span emission after) cannot interleave for
	// the same flow; the lock protects the map against *other* flows'
	// shards.
	if pkt.Flags&netsim.FlagFIN != 0 {
		p.t.mu.Lock()
		ft := p.flows[pkt.Flow]
		delete(p.flows, pkt.Flow)
		p.t.mu.Unlock()
		if ft != nil {
			p.t.Span("flow", p.t.flowLabel("flow", pkt.Flow), "flows", ft.start, now,
				Arg{"bytes", float64(ft.bytes)}, Arg{"pkts", float64(ft.pkts)})
		}
		return
	}
	p.t.mu.Lock()
	ft := p.flows[pkt.Flow]
	if ft == nil {
		ft = &flowTrack{start: now}
		p.flows[pkt.Flow] = ft
	}
	ft.bytes += int64(pkt.Payload)
	ft.pkts++
	p.t.mu.Unlock()
}

func (p *netProbe) PortDequeue(port *netsim.Port, pkt *netsim.Packet) {
	p.deq.Inc()
	if _, isSwitch := port.Owner.(*netsim.Switch); isSwitch {
		p.portHist(port).Observe(float64(port.QueueLen()))
	}
	if h := p.t.hooks; h != nil && h.Net != nil {
		h.Net.PortDequeue(port, pkt)
	}
}

// portHist returns port's dequeue-depth histogram, creating it on first
// use. The set of ports that ever dequeue is a pure function of the
// trial seed, and metric names are sorted at export, so lazy creation
// does not perturb the output.
func (p *netProbe) portHist(port *netsim.Port) *Hist {
	p.t.mu.Lock()
	h, ok := p.qdepth[port]
	p.t.mu.Unlock()
	if ok {
		return h
	}
	h = p.t.Histogram("port.qdepth_pkts."+p.t.portLabel(port),
		0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
	p.t.mu.Lock()
	p.qdepth[port] = h
	p.t.mu.Unlock()
	return h
}

// PortTx marks the end of a frame's serialization (start of propagation).
func (p *netProbe) PortTx(port *netsim.Port, pkt *netsim.Packet) {
	if h := p.t.hooks; h != nil && h.Net != nil {
		h.Net.PortTx(port, pkt)
	}
}

func (p *netProbe) PortDrop(port *netsim.Port, pkt *netsim.Packet) {
	p.drops.Inc()
	p.dropB.Add(int64(pkt.FrameBytes()))
	p.t.InstantAt(port.Sim().Now(), "net", "drop "+p.t.portLabel(port), "drops",
		Arg{"flow", float64(pkt.Flow)}, Arg{"seq", float64(pkt.Seq)})
	if h := p.t.hooks; h != nil && h.Net != nil {
		h.Net.PortDrop(port, pkt)
	}
}

// HostDeliver marks a packet's arrival at its destination endpoint.
func (p *netProbe) HostDeliver(host *netsim.Host, pkt *netsim.Packet) {
	if h := p.t.hooks; h != nil && h.Net != nil {
		h.Net.HostDeliver(host, pkt)
	}
}

func (p *netProbe) LinkState(port *netsim.Port, down bool) {
	key := p.t.portLabel(port)
	now := port.Sim().Now()
	p.t.mu.Lock()
	if down {
		p.downAt[key] = now
		p.t.mu.Unlock()
		return
	}
	at, ok := p.downAt[key]
	delete(p.downAt, key)
	p.t.mu.Unlock()
	if ok {
		p.t.Span("net", "link-down "+key, "links", at, now)
	}
	if h := p.t.hooks; h != nil && h.Net != nil {
		h.Net.LinkState(port, down)
	}
}

func (p *netProbe) flush(now sim.Time) {
	if p.flows == nil {
		return
	}
	ids := make([]int64, 0, len(p.flows))
	for f := range p.flows {
		ids = append(ids, int64(f))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := netsim.FlowID(id)
		ft := p.flows[f]
		p.t.Span("flow", p.t.flowLabel("flow", f), "flows", ft.start, now,
			Arg{"bytes", float64(ft.bytes)}, Arg{"pkts", float64(ft.pkts)},
			Arg{"open", 1})
	}
	labels := make([]string, 0, len(p.downAt))
	for l := range p.downAt {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		p.t.Span("net", "link-down "+l, "links", p.downAt[l], now, Arg{"open", 1})
	}
}

// InstrumentNetwork attaches the trial's forwarding-path probe to the
// network and registers a queue-occupancy gauge for every switch port.
// No-op on a nil trial. Call after topology construction and Bind.
func InstrumentNetwork(t *Trial, n *netsim.Network) {
	if t == nil {
		return
	}
	t.net.ensure()
	n.Probe = &t.net
	for _, node := range n.Nodes() {
		sw, ok := node.(*netsim.Switch)
		if !ok {
			continue
		}
		for _, port := range sw.Ports() {
			t.Gauge("port.qlen."+portKey(port), func() float64 {
				return float64(port.QueueBytes())
			})
		}
	}
	if h := t.hooks; h != nil && h.Instrumented != nil {
		h.Instrumented(n)
	}
}

// --- core: TFC control plane ---

type holdKey struct {
	label string
	flow  netsim.FlowID
}

// tfcProbe implements core.Probe: slot counters/histograms, per-slot
// token/flow-count counter events, and ACK-delay-arbiter hold spans.
type tfcProbe struct {
	t                       *Trial
	slots, stamped, delayed *Counter
	rttm                    *Hist
	holdAt                  map[holdKey]sim.Time
}

func (p *tfcProbe) ensure() {
	if p.holdAt != nil {
		return
	}
	p.slots = p.t.Counter("tfc.slots")
	p.stamped = p.t.Counter("tfc.stamped")
	p.delayed = p.t.Counter("tfc.delayed_acks")
	// Slot RTTs in microseconds, 1µs .. ~16ms.
	p.rttm = p.t.Histogram("tfc.rttm_us", 1, 2, 4, 8, 16, 32, 64, 128, 256,
		512, 1024, 2048, 4096, 8192, 16384)
	p.holdAt = make(map[holdKey]sim.Time)
}

func (p *tfcProbe) SlotEnd(port *netsim.Port, info core.SlotInfo) {
	p.slots.Inc()
	p.rttm.Observe(info.RTTm.Micros())
	key := p.t.portLabel(port)
	p.t.CounterEventAt(port.Sim().Now(), "tfc", "tfc "+key, key,
		Arg{"tokens", info.T}, Arg{"eflows", float64(info.E)}, Arg{"window", info.W})
	if h := p.t.hooks; h != nil && h.SlotEnd != nil {
		h.SlotEnd(port, info)
	}
}

func (p *tfcProbe) WindowStamp(port *netsim.Port, flow netsim.FlowID, window int64) {
	p.stamped.Inc()
}

func (p *tfcProbe) DelayHold(port *netsim.Port, flow netsim.FlowID, held int) {
	p.delayed.Inc()
	k := holdKey{p.t.portLabel(port), flow}
	now := port.Sim().Now()
	p.t.mu.Lock()
	if _, dup := p.holdAt[k]; !dup {
		p.holdAt[k] = now
	}
	p.t.mu.Unlock()
}

func (p *tfcProbe) DelayGrant(port *netsim.Port, flow netsim.FlowID, held int) {
	k := holdKey{p.t.portLabel(port), flow}
	now := port.Sim().Now()
	p.t.mu.Lock()
	at, ok := p.holdAt[k]
	delete(p.holdAt, k)
	p.t.mu.Unlock()
	if ok {
		p.t.Span("tfc", p.t.flowLabel("ack-hold", flow), port.Label, at, now,
			Arg{"held", float64(held)})
	}
}

func (p *tfcProbe) flush(now sim.Time) {
	if p.holdAt == nil {
		return
	}
	keys := make([]holdKey, 0, len(p.holdAt))
	for k := range p.holdAt {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].label != keys[j].label {
			return keys[i].label < keys[j].label
		}
		return keys[i].flow < keys[j].flow
	})
	for _, k := range keys {
		p.t.Span("tfc", p.t.flowLabel("ack-hold", k.flow), k.label, p.holdAt[k], now,
			Arg{"open", 1})
	}
}

// InstrumentTFC attaches the trial's TFC probe to a switch config
// (set it before core.Attach copies the config). No-op on a nil trial.
func InstrumentTFC(t *Trial, cfg *core.SwitchConfig) {
	if t == nil {
		return
	}
	t.tfc.ensure()
	cfg.Probe = &t.tfc
}

// RegisterTFCGauges registers token / effective-flow / window gauges for
// every TFC port of a switch. No-op on a nil trial.
func RegisterTFCGauges(t *Trial, ss *core.SwitchState, sw *netsim.Switch) {
	if t == nil {
		return
	}
	for _, port := range sw.Ports() {
		st := ss.PortState(port)
		if st == nil {
			continue
		}
		key := portKey(port)
		t.Gauge("switch.tokens."+key, func() float64 { return st.Tokens() })
		t.Gauge("switch.eflows."+key, func() float64 { return float64(st.EffectiveFlows()) })
		t.Gauge("switch.window."+key, func() float64 { return st.Window() })
	}
}

// --- tcp / dctcp / credit: transports ---

// transportProbe implements transport.Probe: cwnd histogram + counter
// events, RTO instants, fast-recovery spans, retransmit byte counters,
// credit-rate events.
type transportProbe struct {
	t                    *Trial
	rtxBytes, rtos, recs *Counter
	cwnd                 *Hist
	frAt                 map[netsim.FlowID]sim.Time
}

func (p *transportProbe) ensure() {
	if p.frAt != nil {
		return
	}
	p.rtxBytes = p.t.Counter("tcp.rtx_bytes")
	p.rtos = p.t.Counter("tcp.rto")
	p.recs = p.t.Counter("tcp.fast_recovery")
	p.cwnd = p.t.Histogram("flow.cwnd")
	p.frAt = make(map[netsim.FlowID]sim.Time)
}

func (p *transportProbe) Cwnd(now sim.Time, flow netsim.FlowID, cwnd, ssthresh int64) {
	p.cwnd.Observe(float64(cwnd))
	p.t.CounterEventAt(now, "tcp", p.t.flowLabel("cwnd", flow), "cwnd",
		Arg{"cwnd", float64(cwnd)}, Arg{"ssthresh", float64(ssthresh)})
}

func (p *transportProbe) RTOFired(now sim.Time, flow netsim.FlowID, backoff uint) {
	p.rtos.Inc()
	p.t.InstantAt(now, "tcp", p.t.flowLabel("rto", flow), "rto", Arg{"backoff", float64(backoff)})
	if h := p.t.hooks; h != nil && h.RTO != nil {
		h.RTO(now, flow, backoff)
	}
}

func (p *transportProbe) Recovery(now sim.Time, flow netsim.FlowID, enter bool) {
	if enter {
		p.recs.Inc()
		p.t.mu.Lock()
		if _, dup := p.frAt[flow]; !dup {
			p.frAt[flow] = now
		}
		p.t.mu.Unlock()
		return
	}
	p.t.mu.Lock()
	at, ok := p.frAt[flow]
	delete(p.frAt, flow)
	p.t.mu.Unlock()
	if ok {
		p.t.Span("tcp", p.t.flowLabel("fast-recovery", flow), "recovery", at, now)
	}
}

func (p *transportProbe) Retransmit(now sim.Time, flow netsim.FlowID, bytes int64) {
	p.rtxBytes.Add(bytes)
}

func (p *transportProbe) CreditRate(now sim.Time, flow netsim.FlowID, perSec float64) {
	p.t.CounterEventAt(now, "credit", p.t.flowLabel("credit-rate", flow), "credit",
		Arg{"rate", perSec})
}

func (p *transportProbe) flush(now sim.Time) {
	if p.frAt == nil {
		return
	}
	ids := make([]int64, 0, len(p.frAt))
	for f := range p.frAt {
		ids = append(ids, int64(f))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := netsim.FlowID(id)
		p.t.Span("tcp", p.t.flowLabel("fast-recovery", f), "recovery", p.frAt[f], now,
			Arg{"open", 1})
	}
}

// TransportProbe returns the trial's sender-side transport.Probe (nil
// for a nil trial), for wiring into a transport.DialConfig.
func (t *Trial) TransportProbe() transport.Probe {
	if t == nil {
		return nil
	}
	t.tp.ensure()
	return &t.tp
}

// MarkProbe returns a DCTCP marking observer counting CE marks
// (nil for a nil trial), for dctcp.MarkHook.OnMark.
func (t *Trial) MarkProbe() func(*netsim.Port, netsim.FlowID) {
	if t == nil {
		return nil
	}
	c := t.Counter("dctcp.marked")
	return func(port *netsim.Port, flow netsim.FlowID) { c.Inc() }
}

// PauseProbe returns a BFC pause/resume observer counting XOF and XON
// signals (nil for a nil trial), for bfc.Hook.SetProbe.
func (t *Trial) PauseProbe() bfc.PauseProbe {
	if t == nil {
		return nil
	}
	pauses := t.Counter("bfc.pauses")
	resumes := t.Counter("bfc.resumes")
	return func(port *netsim.Port, flow netsim.FlowID, paused bool) {
		if paused {
			pauses.Inc()
		} else {
			resumes.Inc()
		}
		if h := t.hooks; h != nil && h.Pause != nil {
			h.Pause(port, flow, paused)
		}
	}
}

// --- transport registry dispatch ---
//
// These two dispatchers map a registered transport name to the trial's
// matching probe; unknown names get nil, which every transport tolerates.
// Sender-side probes are typed (transport.Probe); switch-side probes are
// protocol-specific and cross the registry as opaque any values
// (telemetry imports the protocol packages, so they cannot import
// telemetry back).

// DialProbe returns the sender-side telemetry probe for a named
// transport, shaped for workload.Dialer.Probe. Nil-trial safe. The TFC
// sender is not probed.
func (t *Trial) DialProbe(proto string) transport.Probe {
	switch proto {
	case "tcp", "dctcp", "tinytcp", "bfc", "credit":
		return t.TransportProbe()
	}
	return nil
}

// SwitchProbe returns the switch-side telemetry probe for a named
// transport, shaped for transport.AttachConfig.Probe. Nil-trial safe.
func (t *Trial) SwitchProbe(proto string) any {
	if t == nil {
		return nil
	}
	switch proto {
	case "tfc":
		t.tfc.ensure()
		return core.Probe(&t.tfc)
	case "dctcp":
		return t.MarkProbe()
	case "bfc":
		return t.PauseProbe()
	}
	return nil
}

// RegisterTransportGauges registers protocol-specific per-switch gauges
// from a registry Attach result (currently TFC's token / effective-flow /
// window gauges; other transports keep no per-switch state worth
// sampling). No-op on a nil trial or a foreign state type.
func RegisterTransportGauges(t *Trial, state any, switches []*netsim.Switch) {
	if t == nil {
		return
	}
	if states, ok := state.(map[*netsim.Switch]*core.SwitchState); ok {
		for _, sw := range switches {
			if ss := states[sw]; ss != nil {
				RegisterTFCGauges(t, ss, sw)
			}
		}
	}
}

// --- faults: injection windows as spans ---

// faultEnd maps a window-closing transition to its opener.
var faultEnd = map[string]string{
	"link-up":      "link-down",
	"rate-restore": "rate-degrade",
	"loss-off":     "loss-on",
	"host-resume":  "host-pause",
}

type openFault struct {
	kind string
	at   sim.Time
}

// faultProbe turns fault-scheduler transitions into trace spans: each
// down/up-style pair becomes one span covering the injection window.
type faultProbe struct {
	t     *Trial
	count *Counter
	open  map[string]openFault // keyed start-kind + target
}

func (p *faultProbe) ensure() {
	if p.open != nil {
		return
	}
	p.count = p.t.Counter("faults.transitions")
	p.open = make(map[string]openFault)
}

func (p *faultProbe) observe(ev faults.Event) {
	p.count.Inc()
	if start, isEnd := faultEnd[ev.Kind]; isEnd {
		key := start + " " + ev.Target
		if o, ok := p.open[key]; ok {
			p.t.Span("fault", key, "faults", o.at, ev.At)
			delete(p.open, key)
			return
		}
		p.t.Instant("fault", ev.Kind+" "+ev.Target, "faults")
		return
	}
	p.open[ev.Kind+" "+ev.Target] = openFault{kind: ev.Kind, at: ev.At}
}

func (p *faultProbe) flush(now sim.Time) {
	if p.open == nil {
		return
	}
	keys := make([]string, 0, len(p.open))
	for k := range p.open {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.t.Span("fault", k, "faults", p.open[k].at, now, Arg{"open", 1})
	}
}

// FaultProbe returns an observer for faults.Scheduler.Probe
// (nil for a nil trial).
func (t *Trial) FaultProbe() func(faults.Event) {
	if t == nil {
		return nil
	}
	t.flt.ensure()
	return t.flt.observe
}
