package route

import (
	"fmt"
	"math/bits"

	"dejavu/internal/asic"
)

// HopKind classifies a branching-table decision.
type HopKind uint8

// Hop kinds.
const (
	// HopForward sends the packet to a specific egress port (a real
	// exit port or a loopback port toward the next NF's pipeline).
	HopForward HopKind = iota
	// HopResubmit re-enters the same ingress pipe.
	HopResubmit
	// HopToCPU punts the packet: the branching table has no entry for
	// this (path, index) — an unknown service path.
	HopToCPU
)

// Hop is one branching-table decision.
type Hop struct {
	Kind HopKind
	Port asic.PortID // valid when Kind == HopForward
}

// Branching is the runtime form of the branching tables §3.4 installs
// in the last MAU stage of every ingress pipelet. Decisions are a pure
// function of (service path ID, service index, current pipeline,
// already-chosen out port), derived from the chain set and placement,
// so the same structure serves all ingress pipelets.
//
// The paper makes check_nextNF and the branching table exact-match
// tables whose size is known at compile time (§3.2, §5). So is this
// one: the chain set, placement (remote wire ports included) and exit
// ports are compiled into dense tables — path ID → compact chain index,
// (chain, service index) → precomputed entry — that the per-packet
// lookups index without hashing a Go map, copying a Chain or comparing
// an NF name. A Branching must be fully configured before it is
// published to a switch and is read-only from then on. A loopback hop
// names the target pipeline's dedicated recirculation port; the switch
// spreads that traffic over the pipeline's loopback ports.
type Branching struct {
	chains    []Chain // compact chain index → chain
	placement *Placement
	// exitPort is the static front-panel exit port per chain, used
	// when the chain completes without a dynamically chosen out port
	// and for the Fig. 6(b) direct-exit optimization.
	exitPort map[uint16]asic.PortID
	// loopbackFor chooses the loopback port used to reach a pipeline's
	// ingress; defaults to the pipeline's dedicated recirculation port.
	loopbackFor func(pipeline int) asic.PortID

	// paths is an open-addressed table from path ID to chain index:
	// each slot packs path<<16 | index, 0 marks an empty slot (path 0 is
	// reserved). It is at most half full, so probes end.
	paths     []uint32
	pathShift uint
	// hops[chain][index] is the branching entry for service index
	// 0..len(NFs); index 0 is the chain-complete entry.
	hops [][]hop
}

// hop is one compiled branching entry, for the out-port-unset case.
type hop struct {
	act    EntryAction // ActForward, ActLoopback or ActToCPU
	port   asic.PortID // ActForward
	target int         // ActLoopback: the pipeline to reach
	// ingress is the pipeline whose ingress pipe hosts the next NF, or
	// -1: a packet finishing ingress processing there resubmits instead.
	ingress int
}

// NewBranching builds the branching function for a chain set and
// placement.
func NewBranching(chains []Chain, p *Placement) (*Branching, error) {
	b := &Branching{
		chains:      make([]Chain, 0, len(chains)),
		placement:   p,
		exitPort:    make(map[uint16]asic.PortID),
		loopbackFor: func(pl int) asic.PortID { return asic.RecircPort(pl) },
	}
	seen := make(map[uint16]bool, len(chains))
	for _, c := range chains {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if seen[c.PathID] {
			return nil, fmt.Errorf("route: duplicate chain path ID %d", c.PathID)
		}
		seen[c.PathID] = true
		b.chains = append(b.chains, c)
		if c.HasStaticExit() {
			b.exitPort[c.PathID] = c.StaticExitPort
		}
	}
	b.compile()
	return b, nil
}

// compile derives the dense lookup tables from the configuration.
func (b *Branching) compile() {
	size := 2
	for size < 2*len(b.chains) {
		size *= 2
	}
	b.paths = make([]uint32, size)
	b.pathShift = uint(32 - bits.TrailingZeros(uint(size)))
	b.hops = make([][]hop, len(b.chains))
	for ci, c := range b.chains {
		i := b.pathSlot(c.PathID)
		for b.paths[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		b.paths[i] = uint32(c.PathID)<<16 | uint32(ci)
		row := make([]hop, len(c.NFs)+1)
		for index := range row {
			row[index] = b.hopFor(c, uint8(index))
		}
		b.hops[ci] = row
	}
}

// pathSlot is the home slot of a path ID (Fibonacci hashing).
func (b *Branching) pathSlot(path uint16) int {
	return int(uint32(path) * 0x9E3779B1 >> b.pathShift)
}

// hopFor computes the entry for one (chain, service index).
func (b *Branching) hopFor(c Chain, index uint8) hop {
	name, ok := c.NFAt(index)
	if !ok {
		// Chain complete but no out port chosen: use the static exit.
		if port, has := b.exitPort[c.PathID]; has {
			return hop{act: ActForward, port: port, ingress: -1}
		}
		return hop{act: ActToCPU, ingress: -1}
	}
	if port, isRemote := b.placement.Remote[name]; isRemote {
		// §7: out the wire toward the NF's home switch, SFC header intact.
		if port == asic.PortUnset {
			return hop{act: ActToCPU, ingress: -1}
		}
		return hop{act: ActForward, port: port, ingress: -1}
	}
	pl, placed := b.placement.Of(name)
	if !placed {
		return hop{act: ActToCPU, ingress: -1}
	}
	h := hop{act: ActLoopback, target: pl.Pipeline, ingress: -1}
	if pl.Dir == asic.Ingress {
		h.ingress = pl.Pipeline
	}
	// Fig. 6(b) direct exit: the rest of the chain completes within the
	// exit pipeline's egress pipe.
	eg := asic.PipeletID{Pipeline: pl.Pipeline, Dir: asic.Egress}
	if port, has := b.exitPort[c.PathID]; has &&
		c.ExitPipeline == pl.Pipeline &&
		b.placement.ModeOf(eg) != Parallel &&
		remainderCompletesIn(c, b.placement, len(c.NFs)-int(index), eg) {
		h.act, h.port = ActForward, port
	}
	return h
}

// SetLoopbackChooser overrides loopback port selection, a test seam:
// deployments leave the default, and the switch spreads recirculation.
func (b *Branching) SetLoopbackChooser(f func(pipeline int) asic.PortID) { b.loopbackFor = f }

// ChainIndex returns the compact index (0..Chains()-1) of the chain
// with the given path ID — the key of every per-chain dense table.
//
//dv:hotpath
func (b *Branching) ChainIndex(path uint16) (int, bool) {
	mask := len(b.paths) - 1
	for i := b.pathSlot(path); ; i = (i + 1) & mask {
		s := b.paths[i]
		if s == 0 {
			return 0, false
		}
		if s>>16 == uint32(path) {
			return int(s & 0xFFFF), true
		}
	}
}

// ChainAt returns the chain with the given compact index.
func (b *Branching) ChainAt(index int) Chain { return b.chains[index] }

// Chain returns the chain with the given path ID.
func (b *Branching) Chain(path uint16) (Chain, bool) {
	ci, ok := b.ChainIndex(path)
	if !ok {
		return Chain{}, false
	}
	return b.chains[ci], true
}

// NextNF returns the name of the NF a packet on (path, index) must
// visit next — the check_nextNF lookup of §3.2.
func (b *Branching) NextNF(path uint16, index uint8) (string, bool) {
	ci, ok := b.ChainIndex(path)
	if !ok {
		return "", false
	}
	return b.chains[ci].NFAt(index)
}

// Decide implements the ingress branching decision for a packet with
// the given SFC state, currently finishing ingress processing on
// pipeline curr. outPort is the packet's platform out port (unset if
// no NF has chosen one yet). It is DecideAt of the path's chain index.
//
//dv:hotpath
func (b *Branching) Decide(path uint16, index uint8, curr int, outPort asic.PortID) Hop {
	ci, ok := b.ChainIndex(path)
	if !ok {
		ci = -1
	}
	return b.DecideAt(ci, index, curr, outPort)
}

// DecideAt is Decide for a packet whose chain the caller has already
// resolved: ci is its ChainIndex, or -1 for a path no chain declares.
//
//dv:hotpath
func (b *Branching) DecideAt(ci int, index uint8, curr int, outPort asic.PortID) Hop {
	// "If the outPort of a packet is already set, the branching table
	// will directly forward the packet to the port" (§3.4).
	if outPort != asic.PortUnset {
		return Hop{Kind: HopForward, Port: outPort}
	}
	if ci < 0 {
		return Hop{Kind: HopToCPU}
	}
	row := b.hops[ci]
	if int(index) >= len(row) {
		index = 0 // past the chain's first NF: treated as complete, like index 0
	}
	h := &row[index]
	switch {
	case h.ingress == curr && curr >= 0:
		return Hop{Kind: HopResubmit}
	case h.act == ActForward:
		return Hop{Kind: HopForward, Port: h.port}
	case h.act == ActLoopback:
		return Hop{Kind: HopForward, Port: b.loopbackFor(h.target)}
	}
	return Hop{Kind: HopToCPU}
}

// BranchingEntries returns the number of (path, index) entries the
// branching table holds — its size is known at compile time (§5).
func (b *Branching) BranchingEntries() int {
	n := 0
	for _, row := range b.hops {
		n += len(row) // one per index value 0..len
	}
	return n
}

// Chains returns the number of installed chains.
func (b *Branching) Chains() int { return len(b.chains) }
