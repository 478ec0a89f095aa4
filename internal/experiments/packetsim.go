package experiments

import (
	"fmt"
	"math/rand"
)

// Packet-level simulator: an independent, discrete validation of the
// §4 feedback queue. Where runFluid models fluid byte flows, runPackets
// draws individual fixed-size packets from a seeded Bernoulli arrival
// process, queues them in a bounded FIFO in front of the loopback
// port, and recirculates each delivered packet until it has completed
// its k passes. Agreement between the fluid fixed point, the
// packet-level measurement and the analytical model triangulates
// Fig. 8(a) the way the paper's hardware run does.
//
// Why fig8a's packet-sim column sits below §4 for k = 2..5. Two
// properties of the discrete model cause it; neither is a bug.
//
//   - The admission rule. The port serves one packet per slot. When the
//     served packet is on its last pass it leaves, and that slot's
//     external arrival is admitted unconditionally; only a served packet
//     with passes left contends with the arrival for the one free place,
//     50/50. With a saturated queue (offered = loopback = T) and a_i the
//     share of slots serving pass i, the steady state is
//     a₁ = ½ + a_k/2 and a_{i+1} = a_i/2, so egress is a_k·T =
//     T/(2^k − 1): 33.3 / 14.3 / 6.7 / 3.2 Gbps at T = 100, where §4's
//     proportional sharing gives 38.2 / 16.1 / 7.2 / 3.4.
//   - The drain tail. The loop runs until the queue is empty, so once
//     arrivals stop the ≤ packetQueueLen queued packets finish without
//     contention. That lifts the default 200 000-packet run to
//     33.72 / 15.14 / 7.74 / 4.39; at 2 000 000 packets the tail's share
//     shrinks and the run reads 33.39 / 14.38 / 6.80 / 3.36.

const (
	// packetQueueLen bounds the loopback FIFO.
	packetQueueLen = 2000
	// packetWarmupFraction of injected packets is excluded from
	// measurement.
	packetWarmupFraction = 0.3
)

// packetConfig parameterizes a packet-level simulation.
type packetConfig struct {
	OfferedGbps    float64
	LoopbackGbps   float64
	Recirculations int

	// Packets is the number of externally injected packets; defaults
	// to 200_000.
	Packets int
	// Seed drives the arrival process.
	Seed int64
}

// packetResult reports the measured packet-level rates.
type packetResult struct {
	EgressGbps  float64
	DroppedGbps float64
	// EgressFraction is egress/offered over the measured window.
	EgressFraction float64
}

// simPacket is one packet in flight.
type simPacket struct {
	pass    int
	counted bool // injected during the measurement window
}

// runPackets simulates the feedback queue at packet granularity.
//
// Time advances in slots of one packet transmission on the loopback
// port. Per slot, external arrivals occur with probability
// offered/loopback (Bernoulli thinning of the offered process), the
// port serves one queued packet, and served packets either exit (last
// pass) or re-enter the queue tail. The bounded queue tail-drops.
func runPackets(cfg packetConfig) (packetResult, error) {
	if cfg.Packets == 0 {
		cfg.Packets = 200_000
	}
	if cfg.OfferedGbps <= 0 || cfg.LoopbackGbps <= 0 {
		return packetResult{}, fmt.Errorf("experiments: rates must be positive")
	}
	if cfg.Recirculations < 1 {
		return packetResult{}, fmt.Errorf("experiments: Recirculations must be >= 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	candidates := make([]simPacket, 0, 2)
	pArrival := cfg.OfferedGbps / cfg.LoopbackGbps
	if pArrival > 1 {
		// Offered beyond line rate: excess is dropped at ingress; the
		// loopback port still sees at most one arrival per slot.
		pArrival = 1
	}

	var queue fifo[simPacket]
	queue.Grow(packetQueueLen)
	injected := 0
	warmupEnd := int(float64(cfg.Packets) * packetWarmupFraction)
	var measuredIn, measuredOut, measuredDrop int

	// Candidates for the queue this slot: at most one external arrival
	// and one recirculating packet (the one just served). External and
	// recirculated packets interleave on the physical wire, so when the
	// bounded queue cannot take both, the loser is chosen uniformly —
	// the discrete analogue of the proportional loss the §4 analysis
	// assumes.
	for injected < cfg.Packets || !queue.Empty() {
		candidates := candidates[:0]

		if injected < cfg.Packets && rng.Float64() < pArrival {
			counted := injected >= warmupEnd
			injected++
			if counted {
				measuredIn++
			}
			candidates = append(candidates, simPacket{pass: 1, counted: counted})
		}

		// Service one packet.
		if !queue.Empty() {
			pkt := queue.Pop()
			if pkt.pass >= cfg.Recirculations {
				if pkt.counted {
					measuredOut++
				}
			} else {
				pkt.pass++
				candidates = append(candidates, pkt)
			}
		}

		// Fair admission of the slot's contenders.
		if len(candidates) == 2 && rng.Intn(2) == 1 {
			candidates[0], candidates[1] = candidates[1], candidates[0]
		}
		for _, c := range candidates {
			if queue.Len() < packetQueueLen {
				queue.Push(c)
			} else if c.counted {
				measuredDrop++
			}
		}
	}

	if measuredIn == 0 {
		return packetResult{}, fmt.Errorf("experiments: no packets measured")
	}
	frac := float64(measuredOut) / float64(measuredIn)
	return packetResult{
		EgressGbps:     frac * cfg.OfferedGbps,
		DroppedGbps:    float64(measuredDrop) / float64(measuredIn) * cfg.OfferedGbps,
		EgressFraction: frac,
	}, nil
}
