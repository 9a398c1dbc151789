package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tfcsim/internal/netsim"
)

// The invariant watchdogs check simulation invariants on the virtual
// timeline, driven purely by observed records: they never schedule
// events, never draw randomness, and never mutate simulation state, so
// enabling them cannot change any result (tfcvet's probepure analyzer
// machine-checks this — methods on *watchdog receivers are probe roots).
// A violation emits one structured stderr diagnostic plus a
// flight-recorder dump; each watchdog reports at most once per trial so
// a persistent violation cannot flood the run.

// tokenWatchdog checks TFC's token-conservation invariants at every slot
// boundary (paper §4.2–§4.4): the token value T is finite and positive
// (the slot clamp floors it at one MSS), the stamped window W never
// exceeds T (W = T / eSmooth with eSmooth >= 1), the effective flow
// count is at least 1, and the measured utilization rho is finite and
// positive (it may legitimately exceed 1: arrivals fan in from many
// input ports, and a saturated link is deliberately measured at rho >=
// 1 so the adjustment drains standing queues).
type tokenWatchdog struct {
	to      *trialObs
	tripped atomic.Bool
}

// check takes an EvSlot record: T, W and rho in X, Y and Z, E in B.
func (w *tokenWatchdog) check(ev netsim.Event) {
	if w == nil {
		return
	}
	T, W, E, rho := ev.X, ev.Y, ev.B, ev.Z
	bad := ""
	switch {
	case math.IsNaN(T) || math.IsInf(T, 0):
		bad = fmt.Sprintf("token value not finite: T=%v", T)
	case T <= 0:
		bad = fmt.Sprintf("token pool drained below the MSS floor: T=%.1f", T)
	case math.IsNaN(W) || math.IsInf(W, 0):
		bad = fmt.Sprintf("window not finite: W=%v", W)
	case W > T*(1+1e-9)+1e-6:
		bad = fmt.Sprintf("window exceeds token pool: W=%.1f > T=%.1f", W, T)
	case E < 1:
		bad = fmt.Sprintf("effective flow count below 1: E=%d", E)
	case math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0:
		bad = fmt.Sprintf("measured utilization not finite-positive: rho=%v", rho)
	}
	if bad != "" && !w.tripped.Swap(true) {
		w.to.o.violation(w.to, "token-conservation",
			fmt.Sprintf("port=%q t=%dns %s", w.to.t.PortLabel(ev.Port), int64(ev.At), bad))
	}
}

// zeroQueueWatchdog checks TFC's zero-queueing claim (§4.1: tokens are
// granted so that aggregate arrivals match drain rate, keeping standing
// queues near zero): a TFC-controlled port whose queue exceeds the
// configured bound at a slot boundary has lost token control. Ports are
// discovered lazily — only ports that reach a slot boundary are TFC
// ports — so the watchdog needs no topology knowledge.
type zeroQueueWatchdog struct {
	to      *trialObs
	bound   int64
	tripped atomic.Bool
}

func (w *zeroQueueWatchdog) check(ev netsim.Event) {
	if w == nil {
		return
	}
	q := int64(ev.Port.QueueBytes())
	if q > w.bound && !w.tripped.Swap(true) {
		w.to.o.violation(w.to, "zero-queueing",
			fmt.Sprintf("port=%q t=%dns queue=%dB exceeds bound=%dB",
				w.to.t.PortLabel(ev.Port), int64(ev.At), q, w.bound))
	}
}

// pairKey identifies one (port, flow) BFC pause channel.
type pairKey struct {
	port *netsim.Port
	flow netsim.FlowID
}

// pairWatchdog checks BFC XOF/XON pairing: a flow must not be resumed
// while running — an XON with no outstanding XOF means the per-flow
// pause bookkeeping desynchronized from the queue occupancy it mirrors.
// Repeated XOFs are legal: the gate deliberately re-signals a standing
// pause every RefreshGap so a lost XOF cannot strand the flow.
type pairWatchdog struct {
	to      *trialObs
	mu      sync.Mutex
	paused  map[pairKey]bool
	tripped bool
}

func (w *pairWatchdog) check(ev netsim.Event) {
	if w == nil {
		return
	}
	k := pairKey{ev.Port, ev.Flow}
	paused := ev.A != 0
	w.mu.Lock()
	if w.paused == nil {
		w.paused = make(map[pairKey]bool)
	}
	violated := !paused && !w.paused[k] && !w.tripped
	w.paused[k] = paused
	w.tripped = w.tripped || violated
	w.mu.Unlock()
	if violated {
		w.to.o.violation(w.to, "bfc-pairing",
			fmt.Sprintf("port=%q flow=%d t=%dns XON without XOF: flow resumed while not paused",
				w.to.t.PortLabel(ev.Port), ev.Flow, int64(ev.At)))
	}
}

// rtoWatchdog flags retransmission-timeout storms: a sender whose
// exponential backoff reaches the threshold has retransmitted the same
// data 2^n times without an acknowledgment — the flow is effectively
// dead and the run is burning virtual time on timer churn.
type rtoWatchdog struct {
	to        *trialObs
	threshold uint
	tripped   atomic.Bool
}

func (w *rtoWatchdog) check(ev netsim.Event) {
	if w == nil || uint(ev.A) < w.threshold {
		return
	}
	if !w.tripped.Swap(true) {
		w.to.o.violation(w.to, "rto-storm",
			fmt.Sprintf("flow=%d t=%dns backoff=%d reached threshold=%d",
				ev.Flow, int64(ev.At), ev.A, w.threshold))
	}
}
