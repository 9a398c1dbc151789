package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ValidateTrace checks that r holds trace-event JSON of the shape this
// package emits (and the viewers load): an object with a traceEvents
// array whose entries carry a known phase, a name, non-negative
// microsecond timestamps, and integer pid/tid, with trial keys
// (process_name metadata) in sorted order. When the trace holds causal
// packet spans (cat "span" X events) it also checks their chains: every
// span carries a known hop name and integer seq/hop/parent args with
// parent = hop-1; within each chain (pid, tid, seq), ordered by (ts,
// hop), hops advance by one with each hop starting where its predecessor
// ended (monotone, contiguous timestamps); and every run of hops closes
// with exactly one terminal ("deliver", "drop", "abort" or "open"). A
// chain may hold several runs — a delivered-but-retransmitted seq
// restarts at hop 0 — and the first retained run may be front-truncated
// when the recorder ring evicted its oldest events, so only runs after
// the first must start at hop 0. Used by cmd/tracecheck and the CI
// schema gate.
func ValidateTrace(r io.Reader) error {
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if tf.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	chains := make(map[chainKey][]hopEvent)
	var order []chainKey // deterministic reporting order: first appearance
	prevPid, prevKey := -1, ""
	for i, ev := range tf.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok {
			return fmt.Errorf("trace: event %d: missing ph", i)
		}
		name, ok := ev["name"].(string)
		if !ok {
			return fmt.Errorf("trace: event %d: missing name", i)
		}
		for _, k := range []string{"pid", "tid"} {
			v, ok := ev[k].(float64)
			if !ok || v != float64(int64(v)) {
				return fmt.Errorf("trace: event %d: %s must be an integer", i, k)
			}
		}
		switch ph {
		case "M":
			args, ok := ev["args"].(map[string]any)
			if !ok {
				return fmt.Errorf("trace: event %d: metadata without args", i)
			}
			// WriteTrace emits one process_name per trial in sorted key
			// order with pid = sorted index; an out-of-order trace means
			// the export was not merged deterministically.
			if name == "process_name" {
				key, ok := args["name"].(string)
				if !ok {
					return fmt.Errorf("trace: event %d: process_name without args.name", i)
				}
				pid := int(ev["pid"].(float64))
				if prevPid >= 0 && (pid <= prevPid || key <= prevKey) {
					return fmt.Errorf("trace: event %d: trial keys out of order (%q pid=%d after %q pid=%d)",
						i, key, pid, prevKey, prevPid)
				}
				prevPid, prevKey = pid, key
			}
		case "X", "i", "C":
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return fmt.Errorf("trace: event %d: bad ts", i)
			}
			if ph == "X" {
				dur, _ := ev["dur"].(float64)
				if dur < 0 {
					return fmt.Errorf("trace: event %d: negative dur", i)
				}
				if ev["cat"] == SpanCat {
					h, seq, err := spanHopOf(i, name, ev["args"])
					if err != nil {
						return err
					}
					h.ts, h.dur = ts, dur
					k := chainKey{int(ev["pid"].(float64)), int(ev["tid"].(float64)), seq}
					if _, seen := chains[k]; !seen {
						order = append(order, k)
					}
					chains[k] = append(chains[k], h)
				}
			}
			if ph == "i" {
				if s, ok := ev["s"].(string); ok && s != "t" && s != "p" && s != "g" {
					return fmt.Errorf("trace: event %d: bad instant scope %q", i, s)
				}
			}
		default:
			return fmt.Errorf("trace: event %d: unknown phase %q", i, ph)
		}
	}
	for _, k := range order {
		if err := checkChain(k, chains[k]); err != nil {
			return err
		}
	}
	return nil
}

// chainKey identifies one packet-journey chain in a trace.
type chainKey struct {
	pid, tid int
	seq      int64
}

// hopEvent is one span of a chain.
type hopEvent struct {
	name    string
	ts, dur float64
	hop     int64
}

// spanHopOf checks the name and linkage args of span event i and returns
// its hop and chain seq.
func spanHopOf(i int, name string, rawArgs any) (hopEvent, int64, error) {
	args, _ := rawArgs.(map[string]any)
	if !spanHop(name) {
		return hopEvent{}, 0, fmt.Errorf("spans: event %d: unknown hop name %q", i, name)
	}
	seq, ok := intArg(args, "seq")
	if !ok {
		return hopEvent{}, 0, fmt.Errorf("spans: event %d (%s): missing integer seq arg", i, name)
	}
	hop, ok := intArg(args, "hop")
	if !ok || hop < 0 {
		return hopEvent{}, 0, fmt.Errorf("spans: event %d (%s): missing or negative integer hop arg", i, name)
	}
	parent, ok := intArg(args, "parent")
	if !ok || parent != hop-1 {
		return hopEvent{}, 0, fmt.Errorf("spans: event %d (%s): broken parent linkage (hop=%d parent arg=%v)",
			i, name, hop, args["parent"])
	}
	return hopEvent{name: name, hop: hop}, seq, nil
}

// checkChain checks one chain's runs: contiguous hops, each run after the
// first starting at hop 0, exactly one terminal closing each run.
func checkChain(k chainKey, hops []hopEvent) error {
	// Hop starts are microseconds derived from integer nanoseconds; a
	// contiguous chain reassembles to float error only.
	const tol = 1e-3
	// File order is the recorder's canonical total order, which breaks
	// timestamp ties by event fields, not hop index — a zero-duration hop
	// and its successor share a start time. Causal order within a chain is
	// (ts, hop).
	sort.Slice(hops, func(i, j int) bool {
		if hops[i].ts != hops[j].ts {
			return hops[i].ts < hops[j].ts
		}
		return hops[i].hop < hops[j].hop
	})
	// Split the chain into runs at hop resets and check each run.
	start, firstRun := 0, true
	for j := 1; j <= len(hops); j++ {
		if j < len(hops) && hops[j].hop == hops[j-1].hop+1 {
			prev := hops[j-1]
			gap := hops[j].ts - (prev.ts + prev.dur)
			if gap > tol || gap < -tol {
				return fmt.Errorf("spans: chain pid=%d tid=%d seq=%d: hop timestamps not contiguous (%s ends at %v, %s starts at %v)",
					k.pid, k.tid, k.seq, prev.name, prev.ts+prev.dur, hops[j].name, hops[j].ts)
			}
			continue
		}
		run := hops[start:j]
		if !firstRun && run[0].hop != 0 {
			return fmt.Errorf("spans: chain pid=%d tid=%d seq=%d: restarted run begins at hop %d, want 0",
				k.pid, k.tid, k.seq, run[0].hop)
		}
		for m, h := range run {
			if spanTerminals[h.name] != (m == len(run)-1) {
				return fmt.Errorf("spans: chain pid=%d tid=%d seq=%d: incomplete run — %q at position %d of %d",
					k.pid, k.tid, k.seq, h.name, m, len(run))
			}
		}
		start, firstRun = j, false
	}
	return nil
}

// intArg extracts an integer-valued numeric arg.
func intArg(args map[string]any, key string) (int64, bool) {
	v, ok := args[key].(float64)
	if !ok || v != float64(int64(v)) {
		return 0, false
	}
	return int64(v), true
}
