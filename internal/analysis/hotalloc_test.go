package analysis_test

import (
	"testing"

	"tfcsim/internal/analysis"
	"tfcsim/internal/analysis/analysistest"
)

// TestHotalloc proves the hotalloc analyzer catches each seeded
// allocation shape — escaping closure, bound method value, fmt call,
// ...interface{} boxing, un-presized append — anywhere in the
// RunEvent-reachable closure of the call graph, and certifies the approved
// shapes (pre-sized locals, s[:0] reuse, immediately-invoked literals,
// panic formatting, cold code, annotated pool growth). The fixture shadows
// the real tfcsim/internal/tcp import path to land under the package scope
// of the TestEngineThroughputAllocs/TestSteadyStateAllocs gates.
func TestHotalloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Hotalloc,
		"tfcsim/internal/tcp")
}
