// Package asic models a multi-pipeline RMT switch ASIC at the level
// Dejavu needs: pipelines composed of an ingress pipe and an egress
// pipe (pipelets), Ethernet ports hardwired to pipelines, a traffic
// manager that can forward between any ingress and any egress pipe,
// packet resubmission and recirculation paths, per-port loopback mode,
// and a latency model calibrated to the paper's §4 measurements.
//
// The model enforces Tofino's documented recirculation constraints
// (§3.3): (a) resubmission happens only after ingress processing and
// recirculation only after egress processing; (b) recirculation is
// requested in the ingress pipe by choosing a loopback egress port;
// (c) loopback granularity is whole Ethernet ports; and (d)
// resubmission and recirculation stay within one pipeline.
package asic

import (
	"fmt"
	"time"
)

// Direction distinguishes the two pipelets of a pipeline.
type Direction uint8

// Pipelet directions.
const (
	Ingress Direction = iota
	Egress
)

// String names the direction.
func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// PipeletID identifies one pipelet: a pipeline index plus a direction.
type PipeletID struct {
	Pipeline int
	Dir      Direction
}

// String renders e.g. "ingress 0".
func (p PipeletID) String() string {
	return fmt.Sprintf("%s %d", p.Dir, p.Pipeline)
}

// PortID is a switch port number. Regular Ethernet ports are numbered
// densely from 0; special ports live in a reserved high range.
type PortID uint16

// Special ports.
const (
	// PortUnset means "no egress port chosen"; packets reaching the
	// traffic manager with it are dropped and counted.
	PortUnset PortID = 0xFFF
	// PortCPU delivers to the control plane.
	PortCPU PortID = 0x7F0
	// recircPortBase is the first dedicated recirculation port; each
	// pipeline has one at recircPortBase+pipeline. These ports provide
	// the "free" 100 Gbps recirculation bandwidth of §4 and are always
	// in on-chip loopback mode.
	recircPortBase PortID = 0x800
)

// RecircPort returns the dedicated recirculation port of a pipeline.
func RecircPort(pipeline int) PortID { return recircPortBase + PortID(pipeline) }

// IsRecircPort reports whether p is a dedicated recirculation port.
func IsRecircPort(p PortID) bool { return p >= recircPortBase && p < recircPortBase+256 }

// LoopbackMode describes how a port bounces packets back.
type LoopbackMode uint8

// Loopback modes.
const (
	// LoopbackOff: a normal front-panel port.
	LoopbackOff LoopbackMode = iota
	// LoopbackOnChip: MAC-level loopback through dedicated circuitry,
	// no serialization — the cheap path measured at ~75 ns in Fig 8(b).
	LoopbackOnChip
	// LoopbackOffChip: a direct-attach cable plugged back into the same
	// port pair — adds serdes and propagation delay (~145 ns total).
	LoopbackOffChip
)

// Profile is the static description of a switch model.
type Profile struct {
	Name             string
	Pipelines        int // physical pipelines; pipelets = 2 × Pipelines
	StagesPerPipelet int // MAU stages in each ingress or egress pipe
	PortsPerPipeline int // front-panel Ethernet ports hardwired per pipeline
	PortGbps         float64
	RecircGbps       float64 // dedicated recirculation port bandwidth per pipeline

	// Latency model, calibrated so that an idle-switch port-to-port
	// traversal is ~650 ns and an on-chip recirculation adds ~75 ns
	// (§4, Fig. 8b).
	IngressLatency  time.Duration // parser + ingress MAUs + deparser
	TMLatency       time.Duration // traffic manager hop
	EgressLatency   time.Duration // parser + egress MAUs + deparser
	ResubmitLatency time.Duration // ingress deparser back to ingress parser
	RecircOnChip    time.Duration // egress deparser to ingress parser, on-chip
	RecircOffChip   time.Duration // same via a 1 m DAC cable
}

// Wedge100B returns the profile of the paper's testbed switch: a
// Wedge-100B 32X with one Tofino — 32×100 Gbps ports, 2 physical
// pipelines (4 pipelets), 16 hardwired ports per pipeline (§5).
func Wedge100B() Profile {
	return Profile{
		Name:             "Wedge-100B 32X (Tofino, 2 pipelines)",
		Pipelines:        2,
		StagesPerPipelet: 12,
		PortsPerPipeline: 16,
		PortGbps:         100,
		RecircGbps:       100,
		IngressLatency:   250 * time.Nanosecond,
		TMLatency:        150 * time.Nanosecond,
		EgressLatency:    250 * time.Nanosecond,
		ResubmitLatency:  25 * time.Nanosecond,
		RecircOnChip:     75 * time.Nanosecond,
		RecircOffChip:    145 * time.Nanosecond,
	}
}

// Tofino4 returns a 4-pipeline profile (64×100 Gbps), used by the
// multi-pipeline placement experiments.
func Tofino4() Profile {
	p := Wedge100B()
	p.Name = "Tofino (4 pipelines)"
	p.Pipelines = 4
	return p
}

// TotalPorts returns the number of front-panel ports.
func (p Profile) TotalPorts() int { return p.Pipelines * p.PortsPerPipeline }

// TotalPipelets returns the number of pipelets (ingress + egress pipes).
func (p Profile) TotalPipelets() int { return 2 * p.Pipelines }

// Pipelets returns every pipelet in deterministic order: by pipeline,
// ingress before egress.
func (p Profile) Pipelets() []PipeletID {
	out := make([]PipeletID, 0, p.TotalPipelets())
	for pipe := 0; pipe < p.Pipelines; pipe++ {
		out = append(out, PipeletID{Pipeline: pipe, Dir: Ingress}, PipeletID{Pipeline: pipe, Dir: Egress})
	}
	return out
}

// TotalStages returns the number of MAU stages across all pipelets —
// the denominator of the Table-1 "Stages" percentage.
func (p Profile) TotalStages() int { return p.TotalPipelets() * p.StagesPerPipelet }

// CapacityGbps returns the aggregate front-panel bandwidth.
func (p Profile) CapacityGbps() float64 {
	return float64(p.TotalPorts()) * p.PortGbps
}

// PipelineOf returns the pipeline a port is hardwired to.
func (p *Profile) PipelineOf(port PortID) int {
	if IsRecircPort(port) {
		return int(port - recircPortBase)
	}
	return int(port) / p.PortsPerPipeline
}

// ValidPort reports whether port exists on this profile (front-panel,
// CPU, or per-pipeline recirculation port).
func (p *Profile) ValidPort(port PortID) bool {
	if port == PortCPU {
		return true
	}
	if IsRecircPort(port) {
		return int(port-recircPortBase) < p.Pipelines
	}
	return int(port) < p.Pipelines*p.PortsPerPipeline
}

// PortToPortLatency returns the base latency of one full traversal
// (ingress + TM + egress) under an idle buffer.
func (p Profile) PortToPortLatency() time.Duration {
	return p.IngressLatency + p.TMLatency + p.EgressLatency
}
