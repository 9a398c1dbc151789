// Command tracecheck validates Chrome trace-event JSON files of the
// shape tfcsim emits (and Perfetto / chrome://tracing load): an object
// with a traceEvents array of well-formed M/X/i/C events, trial keys
// (process_name metadata) in sorted order, and — when the trace holds
// causal packet spans (cat "span") — well-linked span chains: integer
// seq/hop/parent args with parent = hop-1, monotone hop timestamps,
// and every chain closed by a terminal hop. Used by CI to gate the
// telemetry output schema.
//
// Usage:
//
//	tracecheck FILE...
//
// Exits 0 when every file validates, 1 otherwise.
package main

import (
	"bytes"
	"fmt"
	"os"

	"tfcsim/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck FILE...")
		os.Exit(2)
	}
	ok := true
	for _, path := range os.Args[1:] {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			ok = false
			continue
		}
		if err := telemetry.ValidateTrace(bytes.NewReader(b)); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			ok = false
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if !ok {
		os.Exit(1)
	}
}
