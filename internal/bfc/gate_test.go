package bfc

import (
	"testing"

	"tfcsim/internal/sim"
)

func newGate() *FlowGate {
	return &FlowGate{Pause: 8 << 10, Resume: 4 << 10, RefreshGap: 50 * sim.Microsecond}
}

func TestGatePauseAtThreshold(t *testing.T) {
	g := newGate()
	if g.Add(4<<10, 0, false) {
		t.Fatal("XOF below threshold")
	}
	if !g.Add(4<<10, 0, false) {
		t.Fatal("no XOF at threshold")
	}
	if !g.Paused() {
		t.Fatal("gate not paused after XOF")
	}
}

func TestGateRefreshGapSuppression(t *testing.T) {
	g := newGate()
	if !g.Add(8<<10, 100, false) {
		t.Fatal("no initial XOF")
	}
	// The burst right behind the pause must not re-signal within the gap...
	if g.Add(1500, 100+40*sim.Microsecond, false) {
		t.Fatal("XOF re-signaled within RefreshGap")
	}
	// ...but a refresh after the gap must go out (it defends a lost XOF).
	if !g.Add(1500, 100+60*sim.Microsecond, false) {
		t.Fatal("refresh XOF suppressed beyond RefreshGap")
	}
}

func TestGatePressureLowersThreshold(t *testing.T) {
	g := newGate()
	if g.Add(4<<10, 0, false) {
		t.Fatal("XOF at Resume occupancy without pressure")
	}
	g2 := newGate()
	if !g2.Add(4<<10, 0, true) {
		t.Fatal("no XOF at Resume occupancy under port pressure")
	}
}

func TestGateResumeAndClamp(t *testing.T) {
	g := newGate()
	g.Add(8<<10, 0, false)
	if g.Drain(2 << 10) {
		t.Fatal("XON above Resume")
	}
	if !g.Drain(2 << 10) {
		t.Fatal("no XON at Resume")
	}
	if g.Paused() {
		t.Fatal("still paused after XON")
	}
	// Duplicate drains clamp at zero, never double-XON.
	if g.Drain(16 << 10) {
		t.Fatal("XON while not paused")
	}
	if g.Occ() != 0 {
		t.Fatalf("occupancy %d after over-drain, want 0", g.Occ())
	}
}
