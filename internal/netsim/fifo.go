package netsim

// FIFO is a first-in, first-out queue kept in a power-of-two ring: push
// and pop are O(1) however deep the backlog, where a slice-shift queue
// degenerates to O(n²) total work in exactly the incast pile-ups this
// simulator exists to study. The ring doubles from 16 slots when full and
// never shrinks, so a queue's storage amortizes to its deepest backlog;
// Pop zeroes the slot it frees, so a drained queue pins no pooled packet.
// The zero value is an empty queue.
//
// It holds a port's packets, BFC's predicted drains and a Pacer's held
// packets (TFC's delayed RMA ACKs, the credit shaper's held credits).
type FIFO[T any] struct {
	ring []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.ring[q.head]
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// grow doubles the ring (16 slots at first), unrolled from the head.
func (q *FIFO[T]) grow() {
	//tfcvet:allow hotalloc — doubling growth of the ring, amortized to the queue's deepest backlog
	ring := make([]T, max(16, 2*len(q.ring)))
	n := copy(ring, q.ring[q.head:])
	copy(ring[n:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}
