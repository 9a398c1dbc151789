package telemetry

import (
	"fmt"
	"math"

	"tfcsim/internal/netsim"
)

// The invariant watchdogs check simulation invariants on the virtual
// timeline, driven purely by observed records: they never schedule
// events, never draw randomness, and never mutate simulation state, so
// enabling them cannot change any result (TestObservatoryResultsNeutral
// runs with every watchdog armed and compares against the bare run).
// A violation emits one structured stderr diagnostic plus a
// flight-recorder dump; each watchdog reports at most once per trial so
// a persistent violation cannot flood the run. (The liveness watchdog is
// the endpoint monitor's, in server.go.)
//
//   - token-conservation checks TFC's token invariants at every slot
//     boundary (paper §4.2–§4.4): the token value T is finite and
//     positive (the slot clamp floors it at one MSS), the stamped window
//     W never exceeds T (W = T / eSmooth with eSmooth >= 1), the
//     effective flow count is at least 1, and the measured utilization
//     rho is finite and positive (it may legitimately exceed 1: arrivals
//     fan in from many input ports, and a saturated link is deliberately
//     measured at rho >= 1 so the adjustment drains standing queues).
//   - zero-queueing checks TFC's zero-queueing claim (§4.1: tokens are
//     granted so that aggregate arrivals match drain rate, keeping
//     standing queues near zero): a port whose queue exceeds
//     zeroQueueBytes at a slot boundary has lost token control. Only TFC
//     ports reach slot boundaries, so it needs no topology knowledge.
//   - bfc-pairing checks BFC XOF/XON pairing: a flow must not be resumed
//     while running — an XON with no outstanding XOF means the per-flow
//     pause bookkeeping desynchronized from the queue occupancy it
//     mirrors. Repeated XOFs are legal: the gate deliberately re-signals a
//     standing pause every RefreshGap so a lost XOF cannot strand the flow.
//   - rto-storm flags retransmission-timeout storms: a sender whose
//     exponential backoff reaches rtoStormBackoff has retransmitted the
//     same data 2^n times without an acknowledgment — the flow is
//     effectively dead and the run is burning virtual time on timer churn.
const (
	wdToken = iota
	wdZeroQueue
	wdPairing
	wdRTOStorm
	numWatchdogs
)

var watchdogNames = [numWatchdogs]string{"token-conservation", "zero-queueing", "bfc-pairing", "rto-storm"}

// pauseKey identifies one (port, flow) BFC pause channel.
type pauseKey struct {
	port *netsim.Port
	flow netsim.FlowID
}

// watch runs the watchdogs that check ev's kind: a slot carries T, W and
// rho in X, Y and Z and E in B; a pause carries XOF (1) or XON (0) in A;
// an RTO its backoff stage in A.
func (t *Trial) watch(ev netsim.Event) {
	switch ev.Kind {
	case netsim.EvSlot:
		if bad := tokenFault(ev.X, ev.Y, ev.Z, ev.B); bad != "" {
			t.trip(wdToken, "port=%q t=%dns %s", t.portLabel(ev.Port), int64(ev.At), bad)
		}
		if q := int64(ev.Port.QueueBytes()); q > zeroQueueBytes {
			t.trip(wdZeroQueue, "port=%q t=%dns queue=%dB exceeds bound=%dB",
				t.portLabel(ev.Port), int64(ev.At), q, zeroQueueBytes)
		}
	case netsim.EvPause:
		k := pauseKey{ev.Port, ev.Flow}
		if t.paused == nil {
			t.paused = make(map[pauseKey]bool)
		}
		wasPaused := t.paused[k]
		t.paused[k] = ev.A != 0
		if ev.A == 0 && !wasPaused {
			t.trip(wdPairing, "port=%q flow=%d t=%dns XON without XOF: flow resumed while not paused",
				t.portLabel(ev.Port), ev.Flow, int64(ev.At))
		}
	case netsim.EvRTO:
		if ev.A >= rtoStormBackoff {
			t.trip(wdRTOStorm, "flow=%d t=%dns backoff=%d reached threshold=%d",
				ev.Flow, int64(ev.At), ev.A, rtoStormBackoff)
		}
	}
}

// trip reports watchdog w's violation, formatted from format and args,
// unless w has already reported in this trial.
func (t *Trial) trip(w int, format string, args ...any) {
	if t.tripped[w] {
		return
	}
	t.tripped[w] = true
	t.o.violation(t, watchdogNames[w], fmt.Sprintf(format, args...))
}

// tokenFault describes the first token invariant a slot's T, W, rho and
// E break, or returns "".
func tokenFault(T, W, rho float64, E int64) string {
	switch {
	case math.IsNaN(T) || math.IsInf(T, 0):
		return fmt.Sprintf("token value not finite: T=%v", T)
	case T <= 0:
		return fmt.Sprintf("token pool drained below the MSS floor: T=%.1f", T)
	case math.IsNaN(W) || math.IsInf(W, 0):
		return fmt.Sprintf("window not finite: W=%v", W)
	case W > T*(1+1e-9)+1e-6:
		return fmt.Sprintf("window exceeds token pool: W=%.1f > T=%.1f", W, T)
	case E < 1:
		return fmt.Sprintf("effective flow count below 1: E=%d", E)
	case math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0:
		return fmt.Sprintf("measured utilization not finite-positive: rho=%v", rho)
	}
	return ""
}
