package obs

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"

	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// flightEvent is the dump shape of one ring entry. Kind is the record's
// kind name in lower case; A and B are kind-specific: enq/deq/drop carry
// (seq, queue bytes after), slot carries (token value, effective flows),
// pause carries (paused, 0), rto carries (backoff, 0), link carries
// (down, 0), loss carries (installed, 0).
type flightEvent struct {
	At   sim.Time `json:"t_ns"`
	Kind string   `json:"kind"`
	Port string   `json:"port,omitempty"`
	Flow int64    `json:"flow"`
	A    int64    `json:"a"`
	B    int64    `json:"b"`
}

// portLast is the flight recorder's rolling per-port view: the last seen
// queue depth and event time, dumped as the sorted state snapshot.
type portLast struct {
	port       *netsim.Port
	Port       string   `json:"port"`
	LastNs     sim.Time `json:"last_ns"`
	QueueBytes int64    `json:"queue_bytes"`
	Events     int64    `json:"events"`
}

// flightRing is a bounded ring of recent records plus a per-port
// last-state view (indexed by Port.Ordinal, sized at instrumentation), all
// trial-local and mutex-guarded: a watchdog violation dumps a consistent
// view without touching live simulation state from the wrong goroutine.
// Appends are fixed-cost and allocation-free.
type flightRing struct {
	mu    sync.Mutex
	buf   []netsim.Event
	next  int
	full  bool
	total uint64
	ports []portLast
}

func newFlightRing(cap int) *flightRing {
	return &flightRing{buf: make([]netsim.Event, cap)}
}

// Observe records ev if it is of a kind a post-mortem wants: queue moves,
// drops, link transitions, TFC slots, BFC pauses and RTO firings.
func (r *flightRing) Observe(ev netsim.Event) {
	switch ev.Kind {
	case netsim.EvEnqueue, netsim.EvDequeue, netsim.EvDrop, netsim.EvLink,
		netsim.EvLoss, netsim.EvSlot, netsim.EvPause, netsim.EvRTO:
	default:
		return
	}
	r.mu.Lock()
	r.buf[r.next] = ev
	r.buf[r.next].Pkt = nil // the packet is recycled once Observe returns
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	if ev.Port != nil {
		pl := &r.ports[ev.Port.Ordinal()]
		pl.port = ev.Port
		pl.LastNs = ev.At
		pl.Events++
		switch ev.Kind {
		case netsim.EvEnqueue, netsim.EvDequeue, netsim.EvDrop:
			pl.QueueBytes = ev.B
		}
	}
	r.mu.Unlock()
}

// flightDump is the on-disk dump shape.
type flightDump struct {
	Schema   string        `json:"schema"`
	Run      string        `json:"run"`
	Trial    string        `json:"trial"`
	Watchdog string        `json:"watchdog"`
	Detail   string        `json:"detail"`
	Dropped  uint64        `json:"events_dropped"`
	Ports    []portLast    `json:"ports"`
	Recent   []flightEvent `json:"recent"`
}

// dump writes the ring (oldest first) and the sorted per-port state
// snapshot to path as JSON; label names a port.
func (r *flightRing) dump(path, run, trial, watchdog, detail string, label func(*netsim.Port) string) error {
	r.mu.Lock()
	var recent []flightEvent
	start, n := 0, r.next
	if r.full {
		start, n = r.next, len(r.buf)
	}
	for i := 0; i < n; i++ {
		ev := r.buf[(start+i)%len(r.buf)]
		fe := flightEvent{At: ev.At, Kind: strings.ToLower(ev.Kind.String()),
			Flow: int64(ev.Flow), A: ev.A, B: ev.B}
		if ev.Port != nil {
			fe.Port = label(ev.Port)
		}
		if ev.Kind == netsim.EvSlot {
			fe.A = int64(ev.X) // the token value
		}
		recent = append(recent, fe)
	}
	ports := make([]portLast, 0, len(r.ports))
	for _, pl := range r.ports {
		if pl.Events > 0 {
			pl.Port = label(pl.port)
			ports = append(ports, pl)
		}
	}
	total := r.total
	r.mu.Unlock()
	sort.Slice(ports, func(i, j int) bool { return ports[i].Port < ports[j].Port })
	d := flightDump{
		Schema: "tfcsim-flight-v1", Run: run, Trial: trial,
		Watchdog: watchdog, Detail: detail, Dropped: total - uint64(len(recent)),
		Ports: ports, Recent: recent,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
