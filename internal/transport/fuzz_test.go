package transport

import (
	"testing"

	"tfcsim/internal/sim"
)

// FuzzReassembly drives the reassembly buffer with an arbitrary byte
// script (pairs of start/len nibbles) and checks every step against a
// per-byte reference: next is the first byte never received, and the
// buffered count is the received bytes beyond it.
func FuzzReassembly(f *testing.F) {
	f.Add([]byte{0, 10, 10, 10, 5, 20})
	f.Add([]byte{100, 50, 0, 100, 150, 1})
	f.Add([]byte{9, 30, 6, 30, 3, 30, 1, 40, 0, 37})
	f.Add([]byte{48, 48, 48, 48}) // a duplicate beyond next
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		var r Reassembly
		var recv [256*37 + 256]bool // every byte a script can write
		for i := 0; i+1 < len(script); i += 2 {
			start := int64(script[i]) * 37 // spread offsets
			n := int(script[i+1])
			for b := start; b < start+int64(n); b++ {
				recv[b] = true
			}
			next := r.Add(start, n)
			want := int64(0)
			for recv[want] {
				want++
			}
			var wantBuf int64
			for _, got := range recv[want:] {
				if got {
					wantBuf++
				}
			}
			if next != want || r.Buffered() != wantBuf {
				t.Fatalf("after [%d,+%d): next %d, buffered %d; want %d, %d",
					start, n, next, r.Buffered(), want, wantBuf)
			}
		}
	})
}

// FuzzRTTEstimator checks the estimator never yields an RTO outside its
// clamps for arbitrary sample streams.
func FuzzRTTEstimator(f *testing.F) {
	f.Add([]byte{1, 2, 3, 255, 0, 9})
	f.Fuzz(func(t *testing.T, samples []byte) {
		e := NewRTTEstimator(1000, 1000000, 0)
		for _, s := range samples {
			e.Observe(sim.Time(1 + 1000*int64(s)))
		}
		if rto := e.RTO(); rto < 1000 || rto > 1000000 {
			t.Fatalf("RTO %d outside clamps", rto)
		}
	})
}
