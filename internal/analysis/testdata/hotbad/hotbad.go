// Package hotbad seeds one of every hotpath effect class the analyzer
// must catch: allocation, locking, map writes, channel ops, clock
// reads, fmt, and effects inherited from unannotated callees.
package hotbad

import (
	"fmt"
	"sync"
	"time"

	"fixtures/hotdep"
)

var mu sync.Mutex

var table = map[string]int{}

var ch = make(chan int, 1)

// Spin is the annotated hot root; every effect below must surface.
//
//dv:hotpath
func Spin(n int) string {
	mu.Lock()              // want `hot path: acquires sync\.Mutex`
	buf := make([]byte, n) // want `hot path: allocates a slice \(make\)`
	table["k"] = n         // want `hot path: writes a map`
	ch <- n                // want `hot path: channel send`
	helper(n)
	hotdep.Fill(buf)
	_ = time.Now()              // want `hot path: reads the wall clock \(time\.Now\)`
	return fmt.Sprintf("%d", n) // want `hot path: calls fmt\.Sprintf \(formats and allocates\)`
}

// helper is not annotated: its effects climb into Spin's report with a
// via-chain naming this function.
func helper(n int) []int {
	return append([]int(nil), n) // want `hot path: append may grow the backing array \(via hotbad\.helper\)`
}

// Stage is a module interface with its implementations beside it: a
// hot call through it is followed to every one of them.
type Stage interface {
	Apply(n int) int
}

type cleanStage struct{}

func (cleanStage) Apply(n int) int { return n + 1 }

type leakyStage struct{ seen []int }

func (s *leakyStage) Apply(n int) int {
	s.seen = append(s.seen, n) // want `hot path: append may grow the backing array \(via \(\*leakyStage\)\.Apply\)`
	return n
}

// Dispatch is hot; the unannotated implementation's effect climbs in.
//
//dv:hotpath
func Dispatch(s Stage, n int) int {
	return s.Apply(n)
}

// wide is past the 64-byte receiver budget: its value method copies it.
type wide struct{ words [9]uint64 }

func (w wide) first() uint64 { return w.words[0] }

func (w *wide) last() uint64 { return w.words[8] }

// Ends is hot; only the value-receiver call is reported.
//
//dv:hotpath
func Ends(w *wide) uint64 {
	a := w.first() // want `hot path: copies a 72-byte receiver \(value method wide\.first\)`
	return a + w.last()
}
