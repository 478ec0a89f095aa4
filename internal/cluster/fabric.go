// Package cluster implements the paper's §7 multi-switch extension:
// "multiple switches can be chained back-to-back to provide the same
// bandwidth of a single switch but with manyfold more MAU stages."
// Placement across switches gains stage capacity at the cost of
// off-chip hops between switches. There is one way to do it: wire a
// Fabric of behavioural switches (Connect, NewSpineFabric), describe
// the chain set as a FabricDeployment (optionally pinning NFs to home
// switches), and Reconcile. Every round asks fabricplace.Place for
// per-chain routes over the fabric's current health, anneals each
// switch's share of the chains onto its pipelets, and reprograms exactly
// the switches whose programs changed, through per-switch transactions.
// FabricDeployment.Plan is the same computation without the install —
// the dry run, and the §7 "does it fit, at what latency" model with the
// latency numbers the paper derives from its off-chip recirculation
// measurement.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/fabricplace"
	"dejavu/internal/packet"
)

// Health is the operational state of a fabric element — a switch or a
// directed wire. The zero value is alive.
type Health uint8

const (
	// HealthAlive elements carry traffic normally.
	HealthAlive Health = iota
	// HealthDead elements drop everything: a powered-off switch or a
	// pulled DAC cable.
	HealthDead
)

func (h Health) String() string {
	switch h {
	case HealthAlive:
		return "alive"
	case HealthDead:
		return "dead"
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// WireHook intercepts a packet crossing a fabric wire — the seam the
// fault layer uses for wire corruption windows. It may return a
// mutated packet; returning ok=false destroys the packet on the wire.
type WireHook func(fromSw int, fromPort asic.PortID, pkt *packet.Parsed) (*packet.Parsed, bool)

// Fabric wires several behavioural switches back-to-back (§7 "multiple
// switches can be chained back-to-back"): egress ports connect to
// ingress ports of the neighbouring switch over DAC cables, and
// packets carry their SFC header across, so a chain's segments execute
// on consecutive switches with full header continuity.
//
// Every switch and every directed wire carries an explicit Health
// state; packets offered to dead elements are dropped with
// an attributable reason in FabricTrace.DropReasons, which is what the
// chaos soak's no-silent-blackhole invariant checks against.
type Fabric struct {
	Prof     asic.Profile
	Switches []*asic.Switch

	mu    sync.Mutex
	wires map[wireEnd]wireEnd
	// epoch counts the changes to what PlacementGraph reads: a new wire,
	// or a switch or wire health set to a different value. Reads and
	// packet offers never move it, so an unchanged epoch means an
	// unchanged placement graph.
	epoch      uint64
	swHealth   []Health
	wireHealth map[wireEnd]Health
	wireHook   WireHook
}

type wireEnd struct {
	sw   int
	port asic.PortID
}

// Wire describes one directed fabric wire and its health.
type Wire struct {
	FromSw   int
	FromPort asic.PortID
	ToSw     int
	ToPort   asic.PortID
	Health   Health
}

// NewFabric creates n unwired switches.
func NewFabric(prof asic.Profile, n int) (*Fabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: fabric needs at least one switch")
	}
	f := &Fabric{
		Prof:       prof,
		wires:      make(map[wireEnd]wireEnd),
		swHealth:   make([]Health, n),
		wireHealth: make(map[wireEnd]Health),
	}
	for i := 0; i < n; i++ {
		f.Switches = append(f.Switches, asic.New(prof))
	}
	return f, nil
}

// NewSpineFabric creates n switches wired as a linear spine 0->1->...
// on port 10 with skip wires i->i+2 on port 11, so any single switch
// death leaves a path from the entry: the topology of `dejavu chaos
// -switches` and of an intent's `fabric` section.
func NewSpineFabric(prof asic.Profile, n int) (*Fabric, error) {
	f, err := NewFabric(prof, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n-1; i++ {
		if err := f.Connect(i, 10, i+1, 10); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n-2; i++ {
		if err := f.Connect(i, 11, i+2, 11); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// NumSwitches returns the fabric size.
func (f *Fabric) NumSwitches() int { return len(f.Switches) }

func (f *Fabric) setSwitchHealth(i int, h Health) error {
	if i < 0 || i >= len(f.Switches) {
		return fmt.Errorf("cluster: no such switch %d", i)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swHealth[i] != h {
		f.swHealth[i] = h
		f.epoch++
	}
	return nil
}

// KillSwitch marks switch i dead: every packet offered to it drops.
func (f *Fabric) KillSwitch(i int) error { return f.setSwitchHealth(i, HealthDead) }

// ReviveSwitch returns switch i to normal operation. Its programs are
// intact — death was a fabric-level condition, not a config wipe — so
// the reconciler decides whether to fold it back in.
func (f *Fabric) ReviveSwitch(i int) error { return f.setSwitchHealth(i, HealthAlive) }

// SwitchHealth reports switch i's health (alive for out-of-range, so
// callers can probe speculatively).
func (f *Fabric) SwitchHealth(i int) Health {
	if i < 0 || i >= len(f.Switches) {
		return HealthAlive
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.swHealth[i]
}

// healthEpoch returns the fabric's change counter (see Fabric.epoch).
func (f *Fabric) healthEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// AliveSwitches counts switches that are not dead.
func (f *Fabric) AliveSwitches() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, h := range f.swHealth {
		if h != HealthDead {
			n++
		}
	}
	return n
}

func (f *Fabric) setWireHealth(sw int, port asic.PortID, h Health) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	from := wireEnd{sw: sw, port: port}
	if _, ok := f.wires[from]; !ok {
		return fmt.Errorf("cluster: no wire from switch %d port %d", sw, port)
	}
	if f.wireHealth[from] != h {
		f.wireHealth[from] = h
		f.epoch++
	}
	return nil
}

// CutLink marks the directed wire leaving (sw, port) dead: packets
// crossing it are lost.
func (f *Fabric) CutLink(sw int, port asic.PortID) error {
	return f.setWireHealth(sw, port, HealthDead)
}

// RestoreLink returns the directed wire leaving (sw, port) to service.
func (f *Fabric) RestoreLink(sw int, port asic.PortID) error {
	return f.setWireHealth(sw, port, HealthAlive)
}

// LinkHealth reports the health of the directed wire leaving
// (sw, port); unwired ports report alive.
func (f *Fabric) LinkHealth(sw int, port asic.PortID) Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wireHealth[wireEnd{sw: sw, port: port}]
}

// SetWireHook installs the wire-crossing interceptor (nil clears it).
func (f *Fabric) SetWireHook(h WireHook) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wireHook = h
}

// Wires lists every directed wire with its health, ordered by
// (FromSw, FromPort) so topology walks are deterministic.
func (f *Fabric) Wires() []Wire {
	f.mu.Lock()
	defer f.mu.Unlock()
	ws := make([]Wire, 0, len(f.wires))
	for from, to := range f.wires {
		ws = append(ws, Wire{
			FromSw:   from.sw,
			FromPort: from.port,
			ToSw:     to.sw,
			ToPort:   to.port,
			Health:   f.wireHealth[from],
		})
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].FromSw != ws[j].FromSw {
			return ws[i].FromSw < ws[j].FromSw
		}
		return ws[i].FromPort < ws[j].FromPort
	})
	return ws
}

// Connect wires an egress port of switch a to an ingress port of
// switch b (one direction; call twice for full duplex).
func (f *Fabric) Connect(a int, portA asic.PortID, b int, portB asic.PortID) error {
	if a < 0 || a >= len(f.Switches) || b < 0 || b >= len(f.Switches) {
		return fmt.Errorf("cluster: no such switch in wire %d->%d", a, b)
	}
	if !f.Prof.ValidPort(portA) || !f.Prof.ValidPort(portB) {
		return fmt.Errorf("cluster: invalid wire ports %d->%d", portA, portB)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	from := wireEnd{sw: a, port: portA}
	if _, dup := f.wires[from]; dup {
		return fmt.Errorf("cluster: switch %d port %d already wired", a, portA)
	}
	f.wires[from] = wireEnd{sw: b, port: portB}
	f.epoch++
	return nil
}

// Wired reports whether an egress wire leaves (sw, port).
func (f *Fabric) Wired(sw int, port asic.PortID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.wires[wireEnd{sw: sw, port: port}]
	return ok
}

// FabricTrace records a packet's journey across the fabric. It owns the
// journey's storage: PerSwitch, Out and OutSwitch start on inline arrays
// with room for the §5 case (four switch traversals, one exit), and the
// first two traversals record their switch traces into it, so a common
// probe is one allocation. A longer journey grows on the heap. A kept
// PerSwitch trace pins the whole FabricTrace.
type FabricTrace struct {
	// PerSwitch holds the trace of every switch traversal in order.
	PerSwitch []*asic.Trace
	// Hops counts inter-switch wire crossings.
	Hops int
	// Latency accumulates switch traversals plus wire hops (each wire
	// hop costs the off-chip DAC latency of Fig. 8b).
	Latency time.Duration
	// Out collects the packets that left the fabric on unwired ports.
	Out []asic.Emitted
	// OutSwitch records which switch each Out entry left from.
	OutSwitch []int
	// CPUSwitch gives the switch index of each control-plane punt, in
	// the order the punts appear in the PerSwitch traces' CPU lists.
	CPUSwitch []int
	// Dropped is set when any copy of the packet was dropped, inside a
	// switch or by the fabric; copies emitted before the drop (a mirror)
	// are still followed.
	Dropped bool
	// DropReasons lists fabric-attributable drops (dead switch, cut
	// wire, wire corruption). Switch-internal
	// drops carry their reason inside the PerSwitch traces instead.
	DropReasons []string

	perSwitch [4]*asic.Trace
	out       [1]asic.Emitted
	outSwitch [1]int
	bufs      [2]asic.TraceBuf
}

// maxFabricHops bounds wire crossings per packet.
const maxFabricHops = 32

// offerDrop decides whether switch sw's health drops a packet offered
// to it, returning the attributable reason.
func (f *Fabric) offerDrop(sw int) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swHealth[sw] == HealthDead {
		return fmt.Sprintf("switch %d dead", sw), true
	}
	return "", false
}

// crossWire resolves the wire leaving from, applies wire health and the
// corruption hook, and returns the far end plus the (possibly mutated)
// packet. wired=false means the port is a fabric edge; a non-empty
// reason means the packet died on the wire.
func (f *Fabric) crossWire(from wireEnd, pkt *packet.Parsed) (dst wireEnd, fwd *packet.Parsed, wired bool, reason string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dst, wired = f.wires[from]
	if !wired {
		return dst, nil, false, ""
	}
	if f.wireHealth[from] == HealthDead {
		return dst, nil, true, fmt.Sprintf("wire %d:%d cut", from.sw, from.port)
	}
	fwd = pkt
	if f.wireHook != nil {
		mutated, ok := f.wireHook(from.sw, from.port, pkt)
		if !ok {
			return dst, nil, true, fmt.Sprintf("wire %d:%d corruption destroyed packet", from.sw, from.port)
		}
		fwd = mutated
	}
	return dst, fwd, true, ""
}

// pending is a packet copy waiting to be offered to a switch port.
type pending struct {
	sw   int
	port asic.PortID
	pkt  *packet.Parsed
}

// Inject offers a packet to a switch port and follows it across the
// fabric until every copy has left, been punted, or been dropped. The
// copies waiting for their switch queue in FIFO order in an array on this
// stack, spilling to the heap past its room; the first switch traversals
// record into the trace's own buffers.
func (f *Fabric) Inject(sw int, port asic.PortID, pkt *packet.Parsed) (*FabricTrace, error) {
	if sw < 0 || sw >= len(f.Switches) {
		return nil, fmt.Errorf("cluster: no such switch %d", sw)
	}
	ft := &FabricTrace{}
	ft.PerSwitch, ft.Out, ft.OutSwitch = ft.perSwitch[:0], ft.out[:0], ft.outSwitch[:0]
	var room [4]pending
	queue := append(room[:0], pending{sw: sw, port: port, pkt: pkt})
	for next := 0; next < len(queue); next++ {
		if ft.Hops > maxFabricHops {
			return ft, fmt.Errorf("cluster: packet exceeded %d fabric hops (wiring loop?)", maxFabricHops)
		}
		cur := queue[next]
		if reason, drop := f.offerDrop(cur.sw); drop {
			ft.Dropped = true
			ft.DropReasons = append(ft.DropReasons, reason)
			continue
		}
		var tr *asic.Trace
		var err error
		if n := len(ft.PerSwitch); n < len(ft.bufs) {
			tr, err = f.Switches[cur.sw].InjectInto(cur.port, cur.pkt, &ft.bufs[n])
		} else {
			tr, err = f.Switches[cur.sw].Inject(cur.port, cur.pkt)
		}
		if err != nil {
			return ft, err
		}
		ft.PerSwitch = append(ft.PerSwitch, tr)
		ft.Latency += tr.Latency
		// A copy the switch emitted before dropping the original (a TM
		// mirror) still crosses its wire.
		ft.Dropped = ft.Dropped || tr.Dropped
		for range tr.CPU {
			ft.CPUSwitch = append(ft.CPUSwitch, cur.sw)
		}
		for _, out := range tr.Out {
			dst, fwd, wired, reason := f.crossWire(wireEnd{sw: cur.sw, port: out.Port}, out.Pkt)
			if !wired {
				ft.Out = append(ft.Out, out)
				ft.OutSwitch = append(ft.OutSwitch, cur.sw)
				continue
			}
			if reason != "" {
				ft.Dropped = true
				ft.DropReasons = append(ft.DropReasons, reason)
				continue
			}
			ft.Hops++
			ft.Latency += f.Prof.RecircOffChip // DAC hop, Fig. 8(b)
			queue = append(queue, pending{sw: dst.sw, port: dst.port, pkt: fwd})
		}
	}
	return ft, nil
}

// PlacementGraph projects the fabric's current health onto the
// placement engine's weighted graph: dead elements are excluded. The
// per-switch stage budget is the profile's total MAU stages, in
// placement units.
func (f *Fabric) PlacementGraph() *fabricplace.Graph {
	g := fabricplace.NewGraph(len(f.Switches))
	for i := range f.Switches {
		g.Nodes[i].Alive = f.SwitchHealth(i) != HealthDead
		g.Nodes[i].StageBudget = f.Prof.TotalStages()
	}
	for _, w := range f.Wires() {
		if w.Health == HealthDead {
			continue
		}
		if f.SwitchHealth(w.FromSw) == HealthDead || f.SwitchHealth(w.ToSw) == HealthDead {
			continue
		}
		g.AddEdge(w.FromSw, fabricplace.Edge{To: w.ToSw, Port: w.FromPort})
	}
	g.Normalize()
	return g
}
