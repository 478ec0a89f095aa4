package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call into a layer: the layer's name, start and end
// on the benchmark clock, the span that caused it (-1 for the root of
// an operation) and the operation's identifier, shared by every span
// of one burst, apply or heal cycle.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

// tracer records spans into a preallocated slice from one goroutine,
// so recording allocates nothing and takes no lock; workers each own a
// tracer and the run merges them when it writes the file. A nil tracer
// (timed runs) makes begin and finish no-ops.
type tracer struct {
	spans   []span
	dropped int
}

// maxSpans bounds one tracer's memory; sampling keeps real runs well
// below it and begin counts what it has to refuse.
const maxSpans = 1 << 17

// newTracer touches every page of the span buffer up front, so that no
// recorded interval contains the page fault of its own first write.
func newTracer() *tracer {
	buf := make([]span, maxSpans)
	for i := range buf {
		buf[i].parent = -1
	}
	return &tracer{spans: buf[:0]}
}

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now(), parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// next closes span i and opens a sibling at the same instant: adjacent
// calls share one clock reading, so nothing lies between them.
func (t *tracer) next(i int32, name string) int32 {
	if i < 0 {
		return -1
	}
	prev := t.spans[i]
	if len(t.spans) == cap(t.spans) {
		t.finish(i)
		t.dropped++
		return -1
	}
	at := now()
	t.spans[i].end = at
	t.spans = append(t.spans, span{name: name, start: at, parent: prev.parent, op: prev.op})
	return int32(len(t.spans) - 1)
}

// finish closes the span begin returned.
func (t *tracer) finish(i int32) {
	if i >= 0 {
		t.spans[i].end = now()
	}
}

// ledger is the per-layer account of a traced run: every span's self
// time (its duration minus the part its children cover) summed by
// layer name, against the summed duration of the root spans.
type ledger struct {
	self   map[string]int64
	calls  map[string]int
	rootNs int64
	roots  int
}

// closure is the share of end-to-end (root span) time that named layer
// calls account for: 1.0 means every nanosecond of an operation was
// spent inside a call the trace names, lower means untraced glue.
func (l *ledger) closure() float64 {
	if l.rootNs == 0 {
		return 0
	}
	var layers int64
	for _, ns := range l.self {
		layers += ns
	}
	return float64(layers) / float64(l.rootNs)
}

// selfPerCall is a layer's mean self time per recorded call.
func (l *ledger) selfPerCall(name string) float64 {
	if l.calls[name] == 0 {
		return 0
	}
	return float64(l.self[name]) / float64(l.calls[name])
}

// buildLedger folds the tracers' spans. Root spans contribute their
// duration to the end-to-end total and nothing to a layer: their self
// time is exactly the glue the closure figure exposes.
func buildLedger(ts ...*tracer) *ledger {
	l := &ledger{self: map[string]int64{}, calls: map[string]int{}}
	for _, t := range ts {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			dur := s.end - s.start
			if s.parent < 0 {
				l.rootNs += dur
				l.roots++
				continue
			}
			l.self[s.name] += dur - child[i]
			l.calls[s.name]++
		}
	}
	return l
}

// writeTrace dumps every span as one JSON object per array element.
// Parent indexes are rebased so they stay valid across merged tracers.
func writeTrace(path string, ts ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	base, first := int32(0), true
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			parent := s.parent
			if parent >= 0 {
				parent += base
			}
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":%d}", s.name, s.start, s.end, parent, s.op)
		}
		base += int32(len(t.spans))
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerNames lists the ledger's layers, largest self time first.
func (l *ledger) layerNames() []string {
	names := make([]string, 0, len(l.self))
	for n := range l.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if l.self[names[i]] != l.self[names[j]] {
			return l.self[names[i]] > l.self[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
