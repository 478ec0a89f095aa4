package flowsim

import (
	"fmt"
	"math/rand"
)

// Packet-level simulator: an independent, discrete validation of the
// §4 feedback queue. Where Run models fluid byte flows, RunPackets
// draws individual fixed-size packets from a seeded Bernoulli arrival
// process, queues them in a bounded FIFO in front of the loopback
// port, and recirculates each delivered packet until it has completed
// its k passes. Agreement between the fluid fixed point, the
// packet-level measurement and the analytical model triangulates
// Fig. 8(a) the way the paper's hardware run does.

// PacketConfig parameterizes a packet-level simulation.
type PacketConfig struct {
	OfferedGbps    float64
	LoopbackGbps   float64
	Recirculations int

	// PacketBytes is the fixed packet size; defaults to 1000 B so one
	// packet ≈ 8 µs at 1 Gbps.
	PacketBytes int
	// Packets is the number of externally injected packets; defaults
	// to 200_000.
	Packets int
	// QueuePackets bounds the loopback FIFO; defaults to 2000.
	QueuePackets int
	// Seed drives the arrival process.
	Seed int64
	// WarmupFraction of injected packets excluded from measurement;
	// defaults to 0.3.
	WarmupFraction float64
}

func (c PacketConfig) withDefaults() PacketConfig {
	if c.PacketBytes == 0 {
		c.PacketBytes = 1000
	}
	if c.Packets == 0 {
		c.Packets = 200_000
	}
	if c.QueuePackets == 0 {
		c.QueuePackets = 2000
	}
	if c.WarmupFraction == 0 {
		c.WarmupFraction = 0.3
	}
	return c
}

// PacketResult reports the measured packet-level rates.
type PacketResult struct {
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

// RunPackets simulates the feedback queue at packet granularity.
//
// Time advances in slots of one packet transmission on the loopback
// port. Per slot, external arrivals occur with probability
// offered/loopback (Bernoulli thinning of the offered process), the
// port serves one queued packet, and served packets either exit (last
// pass) or re-enter the queue tail. The bounded queue tail-drops.
func RunPackets(cfg PacketConfig) (PacketResult, error) {
	cfg = cfg.withDefaults()
	if cfg.OfferedGbps <= 0 || cfg.LoopbackGbps <= 0 {
		return PacketResult{}, fmt.Errorf("flowsim: rates must be positive")
	}
	if cfg.Recirculations < 1 {
		return PacketResult{}, fmt.Errorf("flowsim: Recirculations must be >= 1")
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
	queue.Grow(cfg.QueuePackets)
	injected := 0
	warmupEnd := int(float64(cfg.Packets) * cfg.WarmupFraction)
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
			if queue.Len() < cfg.QueuePackets {
				queue.Push(c)
			} else if c.counted {
				measuredDrop++
			}
		}
	}

	if measuredIn == 0 {
		return PacketResult{}, fmt.Errorf("flowsim: no packets measured")
	}
	frac := float64(measuredOut) / float64(measuredIn)
	return PacketResult{
		EgressGbps:     frac * cfg.OfferedGbps,
		DroppedGbps:    float64(measuredDrop) / float64(measuredIn) * cfg.OfferedGbps,
		EgressFraction: frac,
	}, nil
}
