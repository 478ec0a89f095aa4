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
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
//
// The wiring, the health and the wire hook are one published
// generation (fabricState): writers clone it and swap the clone in
// under mu (update), readers load it and take no lock.
type Fabric struct {
	Prof     asic.Profile
	Switches []*asic.Switch

	mu    sync.Mutex
	state atomic.Pointer[fabricState]
}

// fabricState is one generation of the fabric's wiring and health. It
// is never changed once published, so a reader that loads it once — a
// probe for its whole journey, a reconcile round for its findings, plan
// memo and placement graph — sees one view of the fabric.
type fabricState struct {
	// epoch counts the changes to what the placement graph reads: a new
	// wire, or a switch or wire health set to a different value. Reads
	// and packet offers never move it, so an unchanged epoch means an
	// unchanged placement graph.
	epoch    uint64
	swHealth []Health
	// wires holds every directed wire, sorted by (FromSw, FromPort).
	wires []Wire
	hook  WireHook
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
	f := &Fabric{Prof: prof}
	for i := 0; i < n; i++ {
		f.Switches = append(f.Switches, asic.New(prof))
	}
	return f, f.update(func(st *fabricState) (bool, error) {
		st.swHealth = make([]Health, n)
		return true, nil
	})
}

// update is the fabric's one writer: under mu it clones the published
// generation (an empty one before the first), lets change edit the
// clone, and publishes it if change reports a change and no error — a
// clone that is not published moves nothing, its epoch included.
//
//dv:snapshotwriter
func (f *Fabric) update(change func(st *fabricState) (bool, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	next := &fabricState{}
	if cur := f.state.Load(); cur != nil {
		*next = *cur
		next.swHealth, next.wires = slices.Clone(cur.swHealth), slices.Clone(cur.wires)
	}
	changed, err := change(next)
	if changed && err == nil {
		f.state.Store(next)
	}
	return err
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

func (f *Fabric) setSwitchHealth(i int, h Health) error {
	if i < 0 || i >= len(f.Switches) {
		return fmt.Errorf("cluster: no such switch %d", i)
	}
	return f.update(func(st *fabricState) (bool, error) {
		changed := st.swHealth[i] != h
		st.swHealth[i], st.epoch = h, st.epoch+1
		return changed, nil
	})
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
	if st := f.state.Load(); i >= 0 && i < len(st.swHealth) {
		return st.swHealth[i]
	}
	return HealthAlive
}

// AliveSwitches counts switches that are not dead.
func (f *Fabric) AliveSwitches() int { return f.state.Load().alive() }

func (st *fabricState) alive() int {
	n := 0
	for _, h := range st.swHealth {
		if h != HealthDead {
			n++
		}
	}
	return n
}

// byFrom orders wires by their near end, (FromSw, FromPort).
func byFrom(a, b Wire) int {
	return cmp.Or(cmp.Compare(a.FromSw, b.FromSw), cmp.Compare(a.FromPort, b.FromPort))
}

// wire returns the wire leaving (sw, port), or nil for a fabric edge.
func (st *fabricState) wire(sw int, port asic.PortID) *Wire {
	if i, ok := slices.BinarySearchFunc(st.wires, Wire{FromSw: sw, FromPort: port}, byFrom); ok {
		return &st.wires[i]
	}
	return nil
}

func (f *Fabric) setWireHealth(sw int, port asic.PortID, h Health) error {
	return f.update(func(st *fabricState) (bool, error) {
		w := st.wire(sw, port)
		if w == nil {
			return false, fmt.Errorf("cluster: no wire from switch %d port %d", sw, port)
		}
		changed := w.Health != h
		w.Health, st.epoch = h, st.epoch+1
		return changed, nil
	})
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
	if w := f.state.Load().wire(sw, port); w != nil {
		return w.Health
	}
	return HealthAlive
}

// SetWireHook installs the wire-crossing interceptor (nil clears it).
// The hook is not part of the placement graph: it never moves the epoch,
// and setting it cannot fail.
func (f *Fabric) SetWireHook(h WireHook) {
	_ = f.update(func(st *fabricState) (bool, error) {
		changed := h != nil || st.hook != nil
		st.hook = h
		return changed, nil
	})
}

// Wires lists every directed wire with its health, ordered by
// (FromSw, FromPort) so topology walks are deterministic.
func (f *Fabric) Wires() []Wire { return slices.Clone(f.state.Load().wires) }

// Connect wires an egress port of switch a to an ingress port of
// switch b (one direction; call twice for full duplex).
func (f *Fabric) Connect(a int, portA asic.PortID, b int, portB asic.PortID) error {
	if a < 0 || a >= len(f.Switches) || b < 0 || b >= len(f.Switches) {
		return fmt.Errorf("cluster: no such switch in wire %d->%d", a, b)
	}
	if !f.Prof.ValidPort(portA) || !f.Prof.ValidPort(portB) {
		return fmt.Errorf("cluster: invalid wire ports %d->%d", portA, portB)
	}
	w := Wire{FromSw: a, FromPort: portA, ToSw: b, ToPort: portB}
	return f.update(func(st *fabricState) (bool, error) {
		i, dup := slices.BinarySearchFunc(st.wires, w, byFrom)
		if dup {
			return false, fmt.Errorf("cluster: switch %d port %d already wired", a, portA)
		}
		st.wires = slices.Insert(st.wires, i, w)
		st.epoch++
		return true, nil
	})
}

// Wired reports whether an egress wire leaves (sw, port).
func (f *Fabric) Wired(sw int, port asic.PortID) bool { return f.state.Load().wire(sw, port) != nil }

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

// crossWire applies a wire's health and the corruption hook to a packet
// crossing it, returning the (possibly mutated) packet; a non-empty
// reason means the packet died on the wire.
func (st *fabricState) crossWire(w *Wire, pkt *packet.Parsed) (fwd *packet.Parsed, reason string) {
	if w.Health == HealthDead {
		return nil, fmt.Sprintf("wire %d:%d cut", w.FromSw, w.FromPort)
	}
	if st.hook == nil {
		return pkt, ""
	}
	fwd, ok := st.hook(w.FromSw, w.FromPort, pkt)
	if !ok {
		return nil, fmt.Sprintf("wire %d:%d corruption destroyed packet", w.FromSw, w.FromPort)
	}
	return fwd, ""
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
// record into the trace's own buffers. The whole journey sees the one
// generation of wiring and health published when it started.
func (f *Fabric) Inject(sw int, port asic.PortID, pkt *packet.Parsed) (*FabricTrace, error) {
	if sw < 0 || sw >= len(f.Switches) {
		return nil, fmt.Errorf("cluster: no such switch %d", sw)
	}
	st := f.state.Load()
	ft := &FabricTrace{}
	ft.PerSwitch, ft.Out, ft.OutSwitch = ft.perSwitch[:0], ft.out[:0], ft.outSwitch[:0]
	var room [4]pending
	queue := append(room[:0], pending{sw: sw, port: port, pkt: pkt})
	for next := 0; next < len(queue); next++ {
		if ft.Hops > maxFabricHops {
			return ft, fmt.Errorf("cluster: packet exceeded %d fabric hops (wiring loop?)", maxFabricHops)
		}
		cur := queue[next]
		if st.swHealth[cur.sw] == HealthDead {
			ft.Dropped = true
			ft.DropReasons = append(ft.DropReasons, fmt.Sprintf("switch %d dead", cur.sw))
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
			w := st.wire(cur.sw, out.Port)
			if w == nil {
				ft.Out = append(ft.Out, out)
				ft.OutSwitch = append(ft.OutSwitch, cur.sw)
				continue
			}
			fwd, reason := st.crossWire(w, out.Pkt)
			if reason != "" {
				ft.Dropped = true
				ft.DropReasons = append(ft.DropReasons, reason)
				continue
			}
			ft.Hops++
			ft.Latency += f.Prof.RecircOffChip // DAC hop, Fig. 8(b)
			queue = append(queue, pending{sw: w.ToSw, port: w.ToPort, pkt: fwd})
		}
	}
	return ft, nil
}

// PlacementGraph projects the fabric's current health onto the
// placement engine's weighted graph: dead elements are excluded. The
// per-switch stage budget is the profile's total MAU stages, in
// placement units.
func (f *Fabric) PlacementGraph() *fabricplace.Graph { return f.state.Load().placementGraph(f.Prof) }

func (st *fabricState) placementGraph(prof asic.Profile) *fabricplace.Graph {
	g := fabricplace.NewGraph(len(st.swHealth))
	for i, h := range st.swHealth {
		g.Nodes[i].Alive = h != HealthDead
		g.Nodes[i].StageBudget = prof.TotalStages()
	}
	for _, w := range st.wires {
		if w.Health == HealthDead || st.swHealth[w.FromSw] == HealthDead || st.swHealth[w.ToSw] == HealthDead {
			continue
		}
		g.AddEdge(w.FromSw, fabricplace.Edge{To: w.ToSw, Port: w.FromPort})
	}
	g.Normalize()
	return g
}
