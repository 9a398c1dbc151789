package analysis_test

import (
	"testing"

	"tfcsim/internal/analysis"
	"tfcsim/internal/analysis/analysistest"
)

// TestSimtime proves the simtime analyzer forbids package time inside
// the simulation boundary (the fixtures shadow the real
// tfcsim/internal/{exp,model,workload} import paths — the latter two
// joined the boundary in tfcvet v2) and ignores packages outside it.
func TestSimtime(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Simtime,
		"tfcsim/internal/exp", "tfcsim/internal/model",
		"tfcsim/internal/workload", "simtime_outside")
}
