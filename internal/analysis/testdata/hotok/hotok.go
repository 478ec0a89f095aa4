// Package hotok is the conforming side of the hotpath fixture set:
// atomics and in-place writes pass, cold branches carry waivers, and
// dynamic calls are a checked boundary rather than a finding.
package hotok

import "sync/atomic"

var count atomic.Uint64

// Tick is hot and clean: atomics, slice writes, arithmetic.
//
//dv:hotpath
func Tick(buf []byte, v byte) {
	count.Add(1)
	if len(buf) > 0 {
		buf[0] = v
	}
}

// Trace is hot but waives its one cold-branch effect with a reason.
//
//dv:hotpath
func Trace(msgs []string, quiet bool, msg string) []string {
	if !quiet {
		msgs = append(msgs, msg) //dv:allow hotpath: traced mode only
	}
	return msgs
}

// Dyn calls through a func value: dynamic calls are not followed.
//
//dv:hotpath
func Dyn(f func() []byte) {
	_ = f()
}

// Hook is implemented outside this package only, so a call through it
// stays a boundary.
type Hook interface {
	Fire()
}

// Notify calls through an interface with no local implementation.
//
//dv:hotpath
func Notify(h Hook) {
	h.Fire()
}

// pair fits the 64-byte receiver budget, so its value method may run hot.
type pair struct{ a, b uint64 }

func (p pair) sum() uint64 { return p.a + p.b }

// Sum is hot and clean: a small receiver copied by value.
//
//dv:hotpath
func Sum(p pair) uint64 {
	return p.sum()
}
