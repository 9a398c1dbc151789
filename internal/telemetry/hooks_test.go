package telemetry

// DoneTrials reports, by trial key, whether each trial o holds is done
// (for sweep_test.go, which as an external test package cannot read the
// trials' fields).
func DoneTrials(o *Observatory) map[string]bool {
	done := make(map[string]bool)
	for _, t := range o.snapshotTrials() {
		done[t.key] = t.done.Load()
	}
	return done
}
