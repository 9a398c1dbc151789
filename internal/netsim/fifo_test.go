package netsim

import "testing"

// FuzzFIFO replays a push/pop script against a plain slice queue. Each
// byte b is one step: below 0x80 it pushes b%32+1 values, otherwise it
// pops up to b%32+1. After every step the queue holds the reference's
// values in order, the ring is empty or a power of two of at least 16
// slots, and every slot outside the live window is zero (Pop cleared it).
// The seeds wrap the ring and then grow it while the head is mid-ring.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{4, 0x82, 2, 0x82, 3, 0x82, 2, 0x82, 3, 0x82, 2, 0x82, 3})
	f.Add([]byte{11, 0x89, 19, 0x81, 31, 31, 0x9f, 0x9f, 0x9f})
	f.Add([]byte{31, 31, 31, 0x9f, 0x9f, 0x9f, 0x9f, 0x9f, 15, 0x8f, 31})
	f.Add([]byte{0x80, 0, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, script []byte) {
		var q FIFO[int]
		var ref []int
		next := 1 // zero marks a cleared slot
		for step, b := range script {
			k := int(b%32) + 1
			if b < 0x80 {
				for range k {
					q.Push(next)
					ref = append(ref, next)
					next++
				}
			} else {
				for ; k > 0 && len(ref) > 0; k-- {
					if v := q.Pop(); v != ref[0] {
						t.Fatalf("step %d: popped %d, want %d", step, v, ref[0])
					}
					ref = ref[1:]
				}
			}
			checkFIFO(t, step, &q, ref)
		}
	})
}

func checkFIFO(t *testing.T, step int, q *FIFO[int], ref []int) {
	t.Helper()
	if q.Len() != len(ref) {
		t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
	}
	size := len(q.ring)
	if size != 0 && (size < 16 || size&(size-1) != 0) {
		t.Fatalf("step %d: ring of %d slots", step, size)
	}
	for i := range size {
		off := (i - q.head + size) & (size - 1) // distance from the head
		v := q.ring[i]
		switch {
		case off < len(ref) && v != ref[off]:
			t.Fatalf("step %d: element %d is %d, want %d", step, off, v, ref[off])
		case off >= len(ref) && v != 0:
			t.Fatalf("step %d: free slot %d holds %d", step, i, v)
		}
	}
}
