package core

// Tests of slotUpdate, TFC's per-slot control law, driven without a
// simulator: invariants over random slot sequences, rate scaling as a
// metamorphic relation, and the loop's fixed points against the closed
// forms of internal/model.

import (
	"bytes"
	"math"
	"testing"

	"tfcsim/internal/model"
	"tfcsim/internal/netsim"
	"tfcsim/internal/sim"
)

// slotBytes encodes one slot of a FuzzSlotUpdate script: rttm = 1 ns +
// 5 ns·rttm5, arrivals at load/128 of the line rate over the span, and
// E = 1 + e. span is one of spanRTT (the slot itself), spanIdle (1 ns +
// arg/255 s: an idle gap of up to a second) or spanTiny (1 ns + arg).
func slotBytes(full, empty bool, span, arg byte, rttm5 uint16, load, e byte) []byte {
	b := span << 2
	if full {
		b |= 1
	}
	if empty {
		b |= 2
	}
	return []byte{b, arg, byte(rttm5 >> 8), byte(rttm5), load, e}
}

const (
	spanRTT = iota
	spanIdle
	spanTiny
)

// fuzzSeed is a FuzzSlotUpdate script: the config byte, the scaling byte
// and the slots.
func fuzzSeed(config, scale byte, slots ...[]byte) []byte {
	return append([]byte{config, scale}, bytes.Join(slots, nil)...)
}

// checkSlot asserts slotUpdate's invariants for one step from prev to
// next on sample m.
func checkSlot(t *testing.T, i int, cfg *SwitchConfig, bps float64, prev, next slotState, m slotSample, rho float64) {
	t.Helper()
	mss := float64(netsim.MSS)
	tokRTT := next.rttb
	if cfg.DisableDecouple {
		tokRTT = m.rttm
	}
	hi := max(bps*tokRTT.Seconds()*tClampFactor, mss)
	switch {
	case math.IsNaN(next.t) || next.t < mss || next.t > hi:
		t.Fatalf("slot %d: T = %v outside [%v, %v] (%+v)", i, next.t, mss, hi, m)
	case math.IsNaN(rho) || math.IsInf(rho, 0) || rho < rhoFloor:
		t.Fatalf("slot %d: rho = %v (%+v)", i, rho, m)
	case !(next.w <= next.t):
		t.Fatalf("slot %d: W = %v above T = %v", i, next.w, next.t)
	case next.rttb > initRTTB:
		t.Fatalf("slot %d: rttb %v above its initial %v", i, next.rttb, initRTTB)
	case next.rttb < prev.rttb && !(m.full && next.rttb == m.rttm):
		t.Fatalf("slot %d: rttb fell %v -> %v, not to a full sample (%+v)", i, prev.rttb, next.rttb, m)
	case next.rttb > prev.rttb && !(m.queueEmpty && rho < cfg.Rho0-0.03 && next.rttb-prev.rttb <= prev.rttb/16):
		t.Fatalf("slot %d: rttb rose %v -> %v at rho %v (%+v)", i, prev.rttb, next.rttb, rho, m)
	}
}

// FuzzSlotUpdate drives slotUpdate over random slot sequences, idle gaps
// of up to a second included, and checks checkSlot's invariants after
// every slot. Alongside, it runs the same sequence on a port 2^k times
// faster (arrivals and the initial T scaled alike): ρ and rtt_b must be
// bit-identical and T and W exactly 2^k times larger for as long as
// neither side has sat on the MSS floor.
func FuzzSlotUpdate(f *testing.F) {
	const (
		gbps1, gbps10, gbps40, gbps100 = 0 << 4, 1 << 4, 2 << 4, 3 << 4
		noAdjust, noDecouple           = 1, 2
	)
	rep := bytes.Repeat
	// Saturated slots on a 1 µs path: T decays onto the MSS floor.
	f.Add(fuzzSeed(gbps1, 4, rep(slotBytes(true, true, spanRTT, 0, 200, 255, 0), 60)))
	// Idle slots: ρ at its floor drives T onto the clamp.
	f.Add(fuzzSeed(gbps1, 5, rep(slotBytes(false, true, spanRTT, 0, 20000, 0, 3), 60)))
	// A short slot between small frames must not lower rtt_b.
	f.Add(fuzzSeed(gbps10, 1, rep(slotBytes(false, true, spanRTT, 0, 2000, 128, 9), 3)))
	// rtt_b lowered, then long idle slots over a standing queue: no raise.
	f.Add(fuzzSeed(gbps10, 2, slotBytes(true, true, spanRTT, 0, 4000, 128, 9),
		rep(slotBytes(false, false, spanRTT, 0, 20000, 0, 9), 8)))
	// The same with an empty queue: the item-8 raise, up to initRTTB.
	f.Add(fuzzSeed(gbps40, 3, slotBytes(true, true, spanRTT, 0, 4000, 128, 9),
		rep(slotBytes(false, true, spanRTT, 0, 20000, 0, 9), 40)))
	// Steady state, a one-second gap, then saturated slots.
	f.Add(fuzzSeed(gbps10, 7, rep(slotBytes(true, true, spanRTT, 0, 6000, 128, 49), 40),
		slotBytes(true, true, spanIdle, 255, 6000, 0, 49),
		rep(slotBytes(true, false, spanRTT, 0, 6000, 128, 49), 80)))
	// The ablations, with tiny spans and a fluctuating E.
	f.Add(fuzzSeed(gbps100|noAdjust|noDecouple, 6, rep(append(
		slotBytes(true, true, spanTiny, 9, 0, 200, 255), slotBytes(false, false, spanRTT, 0, 900, 100, 0)...), 20)))
	f.Add(fuzzSeed(gbps100|noDecouple|1<<6, 0, rep(append(
		slotBytes(true, false, spanTiny, 0, 7, 255, 1), slotBytes(true, true, spanIdle, 3, 65535, 1, 77)...), 20)))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		cfg := SwitchConfig{
			Rho0:            [...]float64{0.97, 0.9, 1.0, 0.5}[script[0]>>6],
			DisableAdjust:   script[0]&1 != 0,
			DisableDecouple: script[0]&2 != 0,
		}
		bps := [...]netsim.Rate{netsim.Gbps, 10 * netsim.Gbps, 40 * netsim.Gbps, 100 * netsim.Gbps}[script[0]>>4&3].BytesPerSecond()
		k := int(script[1]%8) - 3
		init := slotState{rttb: initRTTB, t: bps * initRTTB.Seconds() * cfg.Rho0}
		init.w = init.t
		s, sk := init, slotState{rttb: initRTTB, t: math.Ldexp(init.t, k), w: math.Ldexp(init.w, k)}
		floored := false
		for i := 0; 2+6*i+6 <= len(script); i++ {
			b := script[2+6*i:]
			m := slotSample{
				rttm:       1 + 5*sim.Time(uint16(b[2])<<8|uint16(b[3])),
				full:       b[0]&1 != 0,
				queueEmpty: b[0]&2 != 0,
				e:          1 + int(b[5]),
			}
			switch b[0] >> 2 & 3 {
			case spanIdle:
				m.span = (1 + sim.Time(b[1])*(sim.Second/255)).Seconds()
			case spanTiny:
				m.span = (1 + sim.Time(b[1])).Seconds()
			default:
				m.span = m.rttm.Seconds()
			}
			m.arrived = bps * m.span * float64(b[4]) / 128
			next, rho := slotUpdate(&cfg, bps, s, m)
			checkSlot(t, i, &cfg, bps, s, next, m, rho)
			mk := m
			mk.arrived = math.Ldexp(m.arrived, k)
			nextK, rhoK := slotUpdate(&cfg, math.Ldexp(bps, k), sk, mk)
			checkSlot(t, i, &cfg, math.Ldexp(bps, k), sk, nextK, mk, rhoK)
			if rhoK != rho || nextK.rttb != next.rttb {
				t.Fatalf("slot %d: at 2^%d the rate, rho %v rttb %v; want %v %v", i, k, rhoK, nextK.rttb, rho, next.rttb)
			}
			floored = floored || next.t == float64(netsim.MSS) || nextK.t == float64(netsim.MSS)
			if !floored && (nextK.t != math.Ldexp(next.t, k) || nextK.w != math.Ldexp(next.w, k)) {
				t.Fatalf("slot %d: at 2^%d the rate, T %v W %v; want 2^%d x (%v, %v)", i, k, nextK.t, nextK.w, k, next.t, next.w)
			}
			s, sk = next, nextK
		}
	})
}

// TestSlotUpdateFixedPoint iterates slotUpdate to its fixed point and
// compares it with internal/model's closed forms, which are derived
// independently of this code (DESIGN §3b). Window-limited flows (each
// slot delivers the T assigned at the previous slot end, at most the
// line rate, into an empty queue) settle at
// model.WindowLimitedUtilization while rtt_m ≤ 1.25·rtt_b. Beyond that,
// DESIGN §3b item 8's raise lifts rtt_b and the loop settles above the
// closed form. Saturated arrivals (ρ ≥ 1) settle at model.Tokens.
func TestSlotUpdateFixedPoint(t *testing.T) {
	cfg := SwitchConfig{}
	cfg.fillDefaults()
	for _, link := range []struct {
		rate netsim.Rate
		rttb sim.Time
	}{{netsim.Gbps, 100 * sim.Microsecond}, {10 * netsim.Gbps, 30 * sim.Microsecond}} {
		bps := link.rate.BytesPerSecond()
		for _, ratio := range []float64{1.0, 1.1, 1.2, 1.5, 2.0} {
			rttm := sim.Time(ratio * float64(link.rttb))
			run := func(saturated bool) (slotState, float64) {
				s := slotState{rttb: link.rttb, t: bps * link.rttb.Seconds() * cfg.Rho0}
				var rho float64
				for range 2000 {
					arrived := bps * rttm.Seconds()
					if !saturated {
						arrived = min(s.t, arrived)
					}
					s, rho = slotUpdate(&cfg, bps, s, slotSample{
						rttm: rttm, full: true, arrived: arrived,
						span: rttm.Seconds(), e: 10, queueEmpty: true,
					})
				}
				return s, rho
			}
			s, rho := run(false)
			u := model.WindowLimitedUtilization(cfg.Rho0, link.rttb, rttm)
			t.Logf("%v, rtt_m/rtt_b %.1f: loop rho %.4f rtt_b %v, model %.4f", link.rate, ratio, rho, s.rttb, u)
			if got := s.t / (bps * rttm.Seconds()); math.Abs(got-rho) > 1e-9 {
				t.Errorf("%v, ratio %.1f: window-limited loop delivers %.6f of the line, measures rho %.6f", link.rate, ratio, got, rho)
			}
			if ratio <= 1.25 && math.Abs(rho-u) > 1e-3 {
				t.Errorf("%v, ratio %.1f: loop rho %.4f, model %.4f", link.rate, ratio, rho, u)
			}
			if ratio > 1.25 && (rho < u || s.rttb <= link.rttb) {
				t.Errorf("%v, ratio %.1f: loop rho %.4f rtt_b %v, want >= model %.4f after a raise", link.rate, ratio, rho, s.rttb, u)
			}
			s, rho = run(true)
			want := model.Tokens(link.rate, link.rttb, cfg.Rho0)
			if rho < 1-1e-9 || math.Abs(s.t/want-1) > 1e-3 {
				t.Errorf("%v, ratio %.1f, saturated: rho %.4f T %.0f, model %.0f", link.rate, ratio, rho, s.t, want)
			}
		}
	}
}
