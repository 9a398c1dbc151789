// Package obs exists only so benchmark/ compiles unchanged: it names the
// runtime observatory's four identifiers that benchmark/workloads.go
// uses, which live in internal/telemetry. It goes with ROADMAP item 4's
// benchmark change, which imports telemetry instead.
package obs

import "tfcsim/internal/telemetry"

type (
	// Options is telemetry.ObsOptions.
	Options = telemetry.ObsOptions
	// Observatory is telemetry.Observatory.
	Observatory = telemetry.Observatory
)

// New is telemetry.NewObservatory.
func New(opts Options) *Observatory { return telemetry.NewObservatory(opts) }

// SpanCat is telemetry.SpanCat.
const SpanCat = telemetry.SpanCat
