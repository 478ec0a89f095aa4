package experiments

import (
	"fmt"
	"math"
)

// The fluid simulator is a time-stepped model of the switch's
// recirculation feedback queue. It plays the role of the paper's
// hardware testbed in Fig. 8(a): traffic is injected at a configured
// rate, forced through a loopback port k times, and the egress rate is
// measured rather than predicted.
//
// It models the traffic manager as a FIFO byte queue in front of the
// loopback port with tail drop. Each tick, external arrivals and
// recirculated traffic enqueue; the port drains at its line rate;
// drained pass-i traffic re-enters as pass-(i+1) arrivals on the next
// tick (or exits if it has completed all passes). The steady-state
// egress rate converges to the fixed point derived analytically in
// internal/recirc, which is precisely the cross-validation the
// experiment needs.

const (
	// fluidTickSeconds is the simulation step.
	fluidTickSeconds = 1e-6
	// fluidWarmupFraction of the run is excluded from rate measurement.
	fluidWarmupFraction = 0.5
)

// fluidConfig parameterizes one feedback-queue simulation.
type fluidConfig struct {
	OfferedGbps    float64 // external injection rate
	LoopbackGbps   float64 // loopback port line rate
	Recirculations int     // passes through the loopback port (k)

	// DurationSeconds is the simulated time; defaults to 50 ms.
	DurationSeconds float64
	// BufferBytes is the traffic manager buffer in front of the
	// loopback port; defaults to 22 MB (Tofino-class TM buffer).
	BufferBytes float64
}

// fluidResult reports measured steady-state rates.
type fluidResult struct {
	EgressGbps  float64   // measured exit rate of fully-processed traffic
	PassGbps    []float64 // measured delivered rate of each pass 1..k
	DroppedGbps float64   // measured drop rate at the loopback queue
	Converged   bool      // queue neither empty-idle nor still growing at the end
	Utilization float64   // loopback port utilization during measurement
}

// withDefaults fills zero fields.
func (c fluidConfig) withDefaults() fluidConfig {
	if c.DurationSeconds == 0 {
		c.DurationSeconds = 0.05
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 22e6
	}
	return c
}

// validate rejects nonsensical configurations. A zero offered rate is
// rejected explicitly: an idle run measures nothing, and silently
// returning all-zero rates has historically hidden mis-filled configs
// (the error text used to claim "rates must be positive" while zero
// slipped through).
func (c fluidConfig) validate() error {
	if c.OfferedGbps <= 0 || c.LoopbackGbps <= 0 {
		return fmt.Errorf("experiments: rates must be positive (offered=%v loopback=%v)", c.OfferedGbps, c.LoopbackGbps)
	}
	if c.Recirculations < 1 {
		return fmt.Errorf("experiments: Recirculations must be >= 1, got %d", c.Recirculations)
	}
	return nil
}

// segment is a FIFO run of bytes all belonging to one pass.
type segment struct {
	pass  int
	bytes float64
}

// runFluid simulates the feedback queue and returns measured rates.
func runFluid(cfg fluidConfig) (fluidResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return fluidResult{}, err
	}
	k := cfg.Recirculations
	gbpsToBytesPerTick := fluidTickSeconds * 1e9 / 8

	extPerTick := cfg.OfferedGbps * gbpsToBytesPerTick
	capPerTick := cfg.LoopbackGbps * gbpsToBytesPerTick

	var queue fifo[segment]
	queueBytes := 0.0
	// recircArrivals[i] holds bytes completing pass i this tick,
	// arriving as pass i+1 next tick.
	recircNext := make([]float64, k+1)
	// arrivals is reused every tick so the loop does not allocate.
	arrivals := make([]segment, 0, k+1)

	ticks := int(math.Round(cfg.DurationSeconds / fluidTickSeconds))
	warmupTicks := int(float64(ticks) * fluidWarmupFraction)

	var exitBytes, dropBytes, servedBytes float64
	passDelivered := make([]float64, k)
	measuredTicks := 0

	for tick := 0; tick < ticks; tick++ {
		measuring := tick >= warmupTicks
		if measuring {
			measuredTicks++
		}

		// Arrivals this tick: recirculated traffic plus fresh external
		// traffic. At packet granularity the streams interleave on the
		// wire, so when the buffer cannot hold them all, each stream
		// loses in proportion to its rate (the fluid limit of shared
		// FIFO tail drop).
		arrivals = arrivals[:0]
		totalArrivals := 0.0
		for pass := 2; pass <= k; pass++ {
			if recircNext[pass] > 0 {
				arrivals = append(arrivals, segment{pass: pass, bytes: recircNext[pass]})
				totalArrivals += recircNext[pass]
				recircNext[pass] = 0
			}
		}
		arrivals = append(arrivals, segment{pass: 1, bytes: extPerTick})
		totalArrivals += extPerTick

		room := cfg.BufferBytes - queueBytes
		scale := 1.0
		if totalArrivals > room {
			if room < 0 {
				room = 0
			}
			scale = room / totalArrivals
			dropBytes += ifMeasuring(measuring, totalArrivals-room)
		}
		for _, a := range arrivals {
			take := a.bytes * scale
			if take <= 0 {
				continue
			}
			queue.Push(segment{pass: a.pass, bytes: take})
			queueBytes += take
		}

		// Service: drain up to capPerTick bytes FIFO.
		budget := capPerTick
		for budget > 0 && !queue.Empty() {
			seg := queue.Front()
			take := seg.bytes
			if take > budget {
				take = budget
			}
			seg.bytes -= take
			queueBytes -= take
			budget -= take
			if measuring {
				servedBytes += take
				passDelivered[seg.pass-1] += take
			}
			if seg.pass < k {
				recircNext[seg.pass+1] += take
			} else if measuring {
				exitBytes += take
			}
			if seg.bytes <= 1e-12 {
				_ = queue.Pop()
			}
		}
	}

	measuredSeconds := float64(measuredTicks) * fluidTickSeconds
	toGbps := func(bytes float64) float64 {
		if measuredSeconds == 0 {
			return 0
		}
		return bytes * 8 / 1e9 / measuredSeconds
	}
	res := fluidResult{
		EgressGbps:  toGbps(exitBytes),
		DroppedGbps: toGbps(dropBytes),
		PassGbps:    make([]float64, k),
		Utilization: toGbps(servedBytes) / cfg.LoopbackGbps,
	}
	for i := range passDelivered {
		res.PassGbps[i] = toGbps(passDelivered[i])
	}
	// Converged: either unsaturated (queue near empty) or saturated
	// with a full buffer (steady drop state).
	res.Converged = queueBytes < capPerTick*2 || queueBytes > cfg.BufferBytes*0.9
	return res, nil
}

// ifMeasuring returns v when cond is true, else 0 — drops during
// warm-up are not counted.
func ifMeasuring(cond bool, v float64) float64 {
	if cond {
		return v
	}
	return 0
}

// sweepFluid runs the Fig. 8(a) experiment: inject `offered` Gbps and
// measure egress for k = 1..maxK recirculations through a loopback
// port of equal rate.
func sweepFluid(offered float64, maxK int) ([]float64, error) {
	out := make([]float64, maxK)
	for k := 1; k <= maxK; k++ {
		res, err := runFluid(fluidConfig{
			OfferedGbps:    offered,
			LoopbackGbps:   offered,
			Recirculations: k,
		})
		if err != nil {
			return nil, err
		}
		out[k-1] = res.EgressGbps
	}
	return out, nil
}
