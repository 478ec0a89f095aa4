// Package traffic holds the synthetic forwarder fixture: a stateless
// one-hop SFC-style pipeline installed on every pipeline of a switch,
// with no NF, MAU or compose code in the way. The repository benchmark
// (bench/, the bare-forward workload and the asic.* rows) and the root
// hot-path benchmarks time the switch's packet path through it.
//
// It measures the *model's* packet rate — how fast this reproduction
// executes pipelet programs — not the ASIC's line rate; the paper's
// point is precisely that the hardware number is independent of chain
// length while a software path (like this one) is not.
package traffic

import (
	"dejavu/internal/asic"
	"dejavu/internal/packet"
)

// ForwarderOpts parameterizes the synthetic benchmark pipeline.
type ForwarderOpts struct {
	// Recircs forces each packet through the pipeline's dedicated
	// recirculation port this many times before it may leave — the
	// §4 workload where chain length exceeds one pipelet.
	Recircs int
}

// Forwarder returns a stateless SFC-style ingress program: validate
// the IPv4 stack, decrement TTL, and spread flows across front-panel
// egress ports by five-tuple hash. With Recircs > 0 the first passes
// loop through the dedicated recirculation port, exercising the
// loopback path the paper measures. Stateless means safe under
// concurrent injection.
func Forwarder(prof asic.Profile, opts ForwarderOpts) asic.StageFunc {
	ports := uint32(prof.TotalPorts())
	return func(c *asic.Ctx) {
		if c.Meta.Passes <= opts.Recircs {
			c.Meta.OutPort = asic.RecircPort(c.Pipelet.Pipeline)
			return
		}
		if !c.Pkt.Valid(packet.HdrIPv4) || c.Pkt.IPv4.TTL == 0 {
			c.Meta.Drop = true
			return
		}
		c.Pkt.IPv4.TTL--
		k0, k1, ok := c.Pkt.FlowWords()
		if !ok {
			c.Meta.Drop = true
			return
		}
		c.Meta.OutPort = asic.PortID(packet.FlowHash(k0, k1) % ports)
	}
}

// l2Rewrite is the egress half of the benchmark pipeline: the MAC
// rewrite a last-hop router performs.
func l2Rewrite(c *asic.Ctx) {
	c.Pkt.Eth.Src = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	c.Pkt.Eth.Dst = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
}

// NewBenchSwitch builds a switch with the synthetic forwarder
// installed on every pipeline — the fixture bench/ and the hot-path
// benchmarks share.
func NewBenchSwitch(prof asic.Profile, opts ForwarderOpts) *asic.Switch {
	sw := asic.New(prof)
	for pl := 0; pl < prof.Pipelines; pl++ {
		if err := sw.InstallIngress(pl, Forwarder(prof, opts)); err != nil {
			panic(err) // unreachable: pipeline indices come from prof
		}
		if err := sw.InstallEgress(pl, l2Rewrite); err != nil {
			panic(err)
		}
	}
	return sw
}
