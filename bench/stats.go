package main

import (
	"math"
	"sort"
	"time"
)

// clock is the benchmark's time base: nanoseconds since process start
// on the monotonic clock, so samples subtract without time.Time's
// wall-clock half. Durations are scaled to reference-speed time before
// they are recorded (hostclock.go).
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles Python's statistics.quantiles(values, n=4) would give
// (exclusive method: position p*(n+1) in the 1-based order statistics).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(at(0.75)-at(0.25)) / math.Abs(med)
}

// samples collects per-operation durations in nanoseconds into a
// preallocated buffer, remembering which time window each finished in.
// Once full, further samples are counted but not kept, so the hot loop
// never allocates.
type samples struct {
	ns      []uint32
	dropped int
	// Window grid: ends[w] is len(ns) after the last sample that
	// finished in window w or an earlier one. Samples arrive in time
	// order, so window w's samples are ns[ends[w-1]:ends[w]].
	start, length int64
	ends          []int
}

// newSamples touches every page of the buffer up front: the page fault
// of a first write would otherwise land inside the measured loop, at
// the same burst numbers every time. The grid matches newWindows.
func newSamples(capacity int, start int64, seconds float64) *samples {
	buf := make([]uint32, capacity)
	for i := range buf {
		buf[i] = 1
	}
	s := &samples{ns: buf[:0]}
	s.grid(start, seconds)
	return s
}

// grid (re)starts the window grid at start, as newWindows lays it out.
func (s *samples) grid(start int64, seconds float64) {
	w := newWindows(start, seconds)
	s.start, s.length, s.ends = w.start, w.length, make([]int, len(w.ops))
}

// add records a sample of duration d that finished at time t.
func (s *samples) add(t, d int64) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(d))
	w := int((t - s.start) / s.length)
	if w < 0 {
		w = 0
	}
	if w >= len(s.ends) {
		w = len(s.ends) - 1
	}
	s.ends[w] = len(s.ns)
}

// window returns the samples that finished in window w.
func (s *samples) window(w int) []uint32 {
	lo := 0
	for i := 0; i < w; i++ {
		if s.ends[i] > lo {
			lo = s.ends[i]
		}
	}
	if s.ends[w] <= lo {
		return nil
	}
	return s.ns[lo:s.ends[w]]
}

// minWindowSamples is the fewest samples a window needs before its own
// percentiles count.
const minWindowSamples = 100

// percentiles returns the p50 and p99 of the sets' samples, each
// divided by per (operations covered by one sample), and the sample
// count. Percentiles are taken inside each time window over the sets'
// pooled samples (the sets share one grid) and the median window is
// reported, so an episode of outside interference shorter than half the
// run moves neither figure. Runs with too few samples per window fall
// back to one pool.
func percentiles(per float64, sets ...*samples) (p50, p99 float64, n int) {
	pick := func(sorted []uint32, q float64) float64 {
		return float64(sorted[int(q*float64(len(sorted)-1))]) / per
	}
	sortU32 := func(v []uint32) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }
	var p50s, p99s []float64
	var all []uint32
	for w := range sets[0].ends {
		var pool []uint32
		for _, s := range sets {
			pool = append(pool, s.window(w)...)
		}
		all = append(all, pool...)
		if len(pool) >= minWindowSamples {
			sortU32(pool)
			p50s = append(p50s, pick(pool, 0.50))
			p99s = append(p99s, pick(pool, 0.99))
		}
	}
	switch {
	case len(all) == 0:
		return 0, 0, 0
	case len(p50s) == 0:
		sortU32(all)
		return pick(all, 0.50), pick(all, 0.99), len(all)
	}
	return median(p50s), median(p99s), len(all)
}

// windows splits a run into equal time windows and tallies, per window,
// the operations completed and the reference-speed time the loop spent
// on them; throughput is the median across windows, which a stall in
// one window cannot move.
type windows struct {
	start, length int64
	ops, busy     []int64
}

// newWindows covers seconds from start with at least eight windows of
// at most one second each.
func newWindows(start int64, seconds float64) *windows {
	n := int(math.Ceil(seconds))
	if n < 8 {
		n = 8
	}
	return &windows{start: start, length: int64(seconds * 1e9 / float64(n)), ops: make([]int64, n), busy: make([]int64, n)}
}

func (w *windows) end() int64 { return w.start + w.length*int64(len(w.ops)) }

// add credits ops, which took busy ns at reference speed, to the window
// containing time t; operations finishing after the last window are
// ignored.
func (w *windows) add(t int64, ops, busy int64) {
	i := int((t - w.start) / w.length)
	if i >= 0 && i < len(w.ops) {
		w.ops[i] += ops
		w.busy[i] += busy
	}
}

// perSecond is the median per-window rate at reference speed, summed
// across the given (time-aligned) tallies.
func perSecond(ws ...*windows) (rate float64, n int) {
	n = len(ws[0].ops)
	rates := make([]float64, n)
	for _, w := range ws {
		for i, ops := range w.ops {
			if w.busy[i] > 0 {
				rates[i] += float64(ops) / (float64(w.busy[i]) / 1e9)
			}
		}
	}
	return median(rates), n
}

// medianNsPerOp runs fn (which performs ops operations) reps times and
// returns the median reference-speed nanoseconds per operation: the
// micro-loop shape every per-layer row uses.
func medianNsPerOp(reps, ops int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := host.start()
		fn()
		per[r] = float64(host.since(t0)) / float64(ops)
	}
	return median(per)
}
