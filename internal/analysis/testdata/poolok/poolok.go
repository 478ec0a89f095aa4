// Package poolok shows the conforming pool shapes: the deferred Put,
// the ownership-transferring return, and the pooled-slice return.
package poolok

import "sync"

type buf struct {
	b [64]byte
}

var pool = sync.Pool{New: func() any { return new(buf) }}

var slicePool = sync.Pool{New: func() any {
	s := make([]byte, 0, 64)
	return &s
}}

// Roundtrip pairs Get with a deferred Put.
func Roundtrip() int {
	b := pool.Get().(*buf)
	defer pool.Put(b)
	return int(b.b[0])
}

// Acquire transfers ownership to the caller by returning.
func Acquire() *buf {
	b := pool.Get().(*buf)
	b.b[0] = 0
	return b
}

// Scratch returns a pooled slice, reset to length zero.
func Scratch() []byte {
	return (*slicePool.Get().(*[]byte))[:0]
}
