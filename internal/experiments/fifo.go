package experiments

// fifo is a head-index FIFO queue over T with O(1) amortized push/pop
// and memory bounded by the live element count; the zero value is ready
// to use. The naive Go idiom `queue = queue[1:]` after repeated append
// pins the backing array's dead head: a long saturated run re-allocates
// an ever-growing array and drags every drained element along on each
// growth copy. The head index makes Pop O(1) without moving the slice
// start, and Push recycles the dead prefix once it dominates the array.
type fifo[T any] struct {
	elems []T
	head  int
}

// Empty reports whether no live elements remain.
func (q *fifo[T]) Empty() bool { return q.head >= len(q.elems) }

// Len returns the number of live elements.
func (q *fifo[T]) Len() int { return len(q.elems) - q.head }

// Front returns a pointer to the oldest live element. It panics on an
// empty queue, like indexing an empty slice would.
func (q *fifo[T]) Front() *T { return &q.elems[q.head] }

// Push appends an element, compacting first when the dead prefix is
// the majority of a non-trivial backing array.
func (q *fifo[T]) Push(v T) {
	if q.head > 64 && q.head*2 >= len(q.elems) {
		n := copy(q.elems, q.elems[q.head:])
		q.elems = q.elems[:n]
		q.head = 0
	}
	q.elems = append(q.elems, v)
}

// Pop removes and returns the front element; when the queue empties it
// rewinds to reuse the backing array from the start. It panics on an
// empty queue.
func (q *fifo[T]) Pop() T {
	v := q.elems[q.head]
	q.head++
	if q.head == len(q.elems) {
		q.elems = q.elems[:0]
		q.head = 0
	}
	return v
}

// Grow pre-allocates capacity for n elements.
func (q *fifo[T]) Grow(n int) {
	if cap(q.elems)-len(q.elems) < n {
		grown := make([]T, len(q.elems), len(q.elems)+n)
		copy(grown, q.elems)
		q.elems = grown
	}
}
