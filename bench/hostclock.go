package main

import (
	"hash/crc32"
	"sort"
	"strconv"
)

// The reference host is a small virtual machine on a shared processor.
// Its core clock moves in steps between about 0.8 and 1.05 of its usual
// rate and stays on a step for seconds to minutes, and now and then
// another tenant's thread on the same core takes a fifth to a third of
// its throughput for a second or a minute. Every timing moves with both,
// by more than any bound this benchmark sets. A fixed kernel of ordinary
// Go work, timed beside the program, moves by nearly the same ratio
// (measured over ten minutes in 200 ms windows: a forwarder burst varies
// by 24 % between its 5th and 95th percentile window, the kernel by
// 26 %, their ratio by 3 %; a pure dependent-chain kernel follows the
// clock steps but not the other tenant, a pure ALU kernel overshoots
// it). So every duration this benchmark reports is scaled to the host
// speed at which the kernel takes kernelNominalNs: "reference-speed"
// time. The program under test never runs the kernel and no timed
// interval contains it.
//
// What the scaling cannot remove: stalls shorter than the spacing of
// kernel runs (the medians over windows take care of those) and the
// part of a workload that waits for memory, whose latency follows
// neither the core clock nor the neighbour.

const (
	// kernelNominalNs is the kernel's duration at reference speed. It
	// is close to what the kernel takes on the reference host's usual
	// step, so reference-speed figures read like wall-clock ones there.
	kernelNominalNs = 3000.0
	// kernelEvery is how often a fast measured loop runs the kernel:
	// a few per cent of the loop's time, never inside a timed interval.
	kernelEvery = 200_000 // ns
)

// kernelMap is the kernel's lookup table; only read after start-up.
var kernelMap = func() map[uint32]uint32 {
	m := make(map[uint32]uint32, 1024)
	for i := uint32(0); i < 1024; i++ {
		m[i] = i * 7
	}
	return m
}()

// kernel is the fixed work, the same on every call: standard-library
// code of the kinds the program is made of — integer formatting and
// parsing, a table-driven CRC, a small sort, a map lookup — so that it
// is as sensitive to the host as the program is. It allocates nothing
// and writes only to its own clock, so concurrent clocks share no
// cache line.
func (c *hostClock) kernel() {
	var s uint64
	for r := 0; r < 10; r++ {
		b := strconv.AppendInt(c.buf[:0], 12345678+int64(r), 10)
		v, _ := strconv.ParseInt(string(b), 10, 64)
		s += uint64(v)
		s += uint64(crc32.ChecksumIEEE(c.buf[:]))
		for i := range c.ints {
			c.ints[i] = int((uint32(i)*2654435761 + uint32(s)) >> 8)
		}
		sort.Ints(c.ints[:])
		s += uint64(c.ints[7])
		s += uint64(kernelMap[uint32(s)&1023])
	}
	c.sink += s
}

// hostClock tracks the host's speed for one goroutine: concurrent
// loops each own one, because two virtual processors need not be on
// the same step.
type hostClock struct {
	factor float64    // reference-speed time per measured time
	recent [9]float64 // the latest kernel timings, ns
	runs   int
	sumNs  float64 // of every kernel timing, for host.kernel_ns
	last   int64   // when the kernel last finished

	// The kernel's working data and its result, kept live.
	buf  [64]byte
	ints [32]int
	sink uint64
}

func newHostClock() *hostClock {
	c := &hostClock{}
	c.observe(len(c.recent))
	return c
}

// observe times the kernel n times and refreshes the factor from the
// median of the latest timings, so that a run an interrupt landed in
// changes nothing. One untimed run comes first: it brings the kernel's
// code and data back into the caches the program has just emptied, so
// that how much the program empties them is not part of the timing.
// It returns the time afterwards.
func (c *hostClock) observe(n int) int64 {
	c.kernel()
	t := now()
	for ; n > 0; n-- {
		c.kernel()
		t1 := now()
		c.recent[c.runs%len(c.recent)] = float64(t1 - t)
		c.runs++
		c.sumNs += float64(t1 - t)
		t = t1
	}
	c.last = t

	s := c.recent
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	c.factor = kernelNominalNs / s[len(s)/2]
	return t
}

// tick is called between the operations of a fast loop with a recent
// clock reading; it runs the kernel when kernelEvery has passed and
// returns the time afterwards (t itself when it did not run).
func (c *hostClock) tick(t int64) int64 {
	if t-c.last < kernelEvery {
		return t
	}
	return c.observe(1)
}

// scale converts a measured duration to reference-speed time.
func (c *hostClock) scale(d int64) int64 {
	return int64(float64(d)*c.factor + 0.5)
}

// refresh replaces the majority of the latest timings.
func (c *hostClock) refresh() int64 {
	return c.observe(len(c.recent)/2 + 1)
}

// start and since time an operation of a millisecond or more: start
// returns the time the operation begins at, after refreshing a factor
// that is not fresh; since returns the reference-speed time elapsed,
// scaled by the mean of the factor before the operation and the one a
// refresh right after it gives.
func (c *hostClock) start() int64 {
	t := now()
	if t-c.last >= kernelEvery {
		t = c.refresh()
	}
	return t
}

func (c *hostClock) since(t0 int64) int64 {
	t := now()
	before := c.factor
	c.refresh()
	return int64(float64(t-t0)*(before+c.factor)/2 + 0.5)
}

// kernelNs is the mean kernel timing so far: how fast the host really
// ran.
func (c *hostClock) kernelNs() float64 {
	return c.sumNs / float64(c.runs)
}

// absorb adds a finished loop's kernel timings to c's mean.
func (c *hostClock) absorb(o *hostClock) {
	c.sumNs += o.sumNs
	c.runs += o.runs
}

// host is the clock of the main goroutine, which runs every slow
// operation (set-ups, applies, reconciles, micro-loops) and the
// single-goroutine loops. Injectors own theirs.
var host = newHostClock()
