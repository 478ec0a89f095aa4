package core

import (
	"strconv"

	"dejavu/internal/asic"
	"dejavu/internal/telemetry"
)

// RegisterMetrics registers every metric source of this deployment with
// a telemetry registry: the switch-level datapath counters (when
// Config.Telemetry is on), the composer's per-NF and per-chain
// counters, the postcard log (when Config.Postcards is on), the
// control-plane set its builds and hot swaps record into, and a
// port-stats collector derived from the switch's own PortStats. This is
// what `dejavu serve -metrics` exposes; docs/OBSERVABILITY.md catalogues
// the resulting families.
func (d *Deployment) RegisterMetrics(reg *telemetry.Registry) {
	if d.Datapath != nil {
		reg.Register(d.Datapath)
	}
	if t := d.Telemetry(); t != nil {
		reg.Register(t)
	}
	if d.Postcards != nil {
		reg.Register(d.Postcards)
	}
	reg.Register(d.Control)
	reg.Register(telemetry.CollectorFunc(d.gatherPorts))
}

// gatherPorts renders the switch's per-port counters and admin state,
// its drop total and the depth of its CPU queue.
// Front-panel ports use their numeric ID as the port label; the
// per-pipeline dedicated recirculation ports are labelled "recircN".
func (d *Deployment) gatherPorts() []telemetry.Family {
	pkts := telemetry.Family{
		Name: "dejavu_port_packets_total",
		Help: "Packets through each switch port (rx/tx).",
		Kind: telemetry.KindCounter,
	}
	bytes := telemetry.Family{
		Name: "dejavu_port_bytes_total",
		Help: "Bytes through each switch port (rx/tx).",
		Kind: telemetry.KindCounter,
	}
	up := telemetry.Family{
		Name: "dejavu_port_up",
		Help: "Port administrative state (1 up, 0 down).",
		Kind: telemetry.KindGauge,
	}
	add := func(label string, st *asic.PortStats) {
		pkts.Samples = append(pkts.Samples,
			telemetry.Sample{Labels: `port="` + label + `",dir="rx"`, Value: float64(st.RxPackets.Load())},
			telemetry.Sample{Labels: `port="` + label + `",dir="tx"`, Value: float64(st.TxPackets.Load())},
		)
		bytes.Samples = append(bytes.Samples,
			telemetry.Sample{Labels: `port="` + label + `",dir="rx"`, Value: float64(st.RxBytes.Load())},
			telemetry.Sample{Labels: `port="` + label + `",dir="tx"`, Value: float64(st.TxBytes.Load())},
		)
	}
	prof := d.Config.Prof
	for p := 0; p < prof.TotalPorts(); p++ {
		port := asic.PortID(p)
		add(strconv.Itoa(p), d.Switch.Stats(port))
		v := 0.0
		if d.Switch.PortIsUp(port) {
			v = 1
		}
		up.Samples = append(up.Samples, telemetry.Sample{Labels: `port="` + strconv.Itoa(p) + `"`, Value: v})
	}
	for pipe := 0; pipe < prof.Pipelines; pipe++ {
		add("recirc"+strconv.Itoa(pipe), d.Switch.Stats(asic.RecircPort(pipe)))
	}
	drops := telemetry.Family{
		Name:    "dejavu_switch_drops_total",
		Help:    "Packets dropped switch-wide (all reasons).",
		Kind:    telemetry.KindCounter,
		Samples: []telemetry.Sample{{Value: float64(d.Switch.Drops())}},
	}
	cpuq := telemetry.Family{
		Name:    "dejavu_cpu_queue_depth",
		Help:    "Punted packets waiting in the switch's CPU queue for the control plane.",
		Kind:    telemetry.KindGauge,
		Samples: []telemetry.Sample{{Value: float64(d.Switch.CPUQueueDepth())}},
	}
	return []telemetry.Family{pkts, bytes, up, drops, cpuq}
}
