package experiments

import "testing"

func TestFIFOOrderAndLen(t *testing.T) {
	var q fifo[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("zero value not empty: len=%d", q.Len())
	}
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	if *q.Front() != 0 {
		t.Fatalf("Front = %d, want 0", *q.Front())
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop #%d = %d", i, got)
		}
	}
	if !q.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestFIFOInterleavedOrder(t *testing.T) {
	var q fifo[int]
	next := 0
	want := 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for !q.Empty() {
		if got := q.Pop(); got != want {
			t.Fatalf("drain Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d elements, pushed %d", want, next)
	}
}

// TestFIFOMemoryBound is the regression guard for the slice-pinning
// bug: a queue that never holds more than a handful of live elements
// must not grow its backing array with the total number of elements
// pushed through it.
func TestFIFOMemoryBound(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 1_000_000; i++ {
		q.Push(i)
		if q.Len() > 4 {
			q.Pop()
		}
	}
	if c := cap(q.elems); c > 4096 {
		t.Fatalf("backing array grew to %d for a queue of <=5 live elements", c)
	}
}

func TestFIFOFrontIsMutable(t *testing.T) {
	var q fifo[int]
	q.Push(7)
	*q.Front() = 9
	if got := q.Pop(); got != 9 {
		t.Fatalf("Pop after Front mutation = %d, want 9", got)
	}
}

func TestFIFOGrow(t *testing.T) {
	var q fifo[int]
	q.Grow(128)
	if c := cap(q.elems); c < 128 {
		t.Fatalf("cap = %d after Grow(128)", c)
	}
	q.Push(1)
	q.Push(2)
	q.Grow(1000)
	if got := q.Pop(); got != 1 {
		t.Fatalf("Pop after Grow = %d, want 1", got)
	}
	if c := cap(q.elems); c < 1000 {
		t.Fatalf("cap = %d after Grow(1000)", c)
	}
}
