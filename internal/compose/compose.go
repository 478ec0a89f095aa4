// Package compose implements Dejavu's NF composition (§3.2): it turns
// the NFs assigned to each pipelet into (a) a single merged P4-like
// control block wrapped with the framework's check_nextNF,
// check_sfcFlags and branching tables, for compilation and resource
// accounting; and (b) a behavioural pipelet program for the ASIC
// model, which dispatches packets to the right NF, translates SFC
// header flags into platform actions, advances the service index, and
// runs the ingress branching decision of §3.4.
//
// Both the sequential and parallel composition operators of Fig. 5 are
// supported; the IR they generate mirrors the figure's structure.
package compose

import (
	"sort"
	"sync/atomic"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/telemetry"
)

// packetAlias shortens signatures inside this package.
type packetAlias = packet.Parsed

// sfcBit is the SFC header validity bit.
const sfcBit = packet.HdrSFC

// Composer builds pipelet programs for a switch profile from a chain
// set, a placement, and the NF implementations.
type Composer struct {
	Prof      asic.Profile
	Chains    []route.Chain
	Placement *route.Placement
	NFs       nf.List
	Branching *route.Branching

	ids map[string]uint8 // NF name -> meta.next_nf ID

	// telemetry aggregates per-NF and per-path datapath counters.
	telemetry *Telemetry

	// postcards is the shared postcard-log cell: when it holds a log,
	// every composed pipelet program stamps in-band per-hop postcards.
	// It is a pointer so AdoptState can share one cell across composer
	// generations during live reconfiguration.
	postcards *atomic.Pointer[telemetry.PostcardLog]
}

// Telemetry returns the composer's datapath counters.
func (c *Composer) Telemetry() *Telemetry { return c.telemetry }

// New creates a composer and precomputes the branching function.
func New(prof asic.Profile, chains []route.Chain, placement *route.Placement, nfs nf.List) (*Composer, error) {
	if err := placement.Validate(prof, chains); err != nil {
		return nil, err
	}
	br, err := route.NewBranching(chains, placement)
	if err != nil {
		return nil, err
	}
	// Stable NF ID assignment (sorted by name) for meta.next_nf.
	names := make([]string, 0, len(nfs))
	for _, f := range nfs {
		names = append(names, f.Name())
	}
	sort.Strings(names)
	c := &Composer{
		Prof:      prof,
		Chains:    chains,
		Placement: placement,
		NFs:       nfs,
		Branching: br,
		ids:       make(map[string]uint8),
		telemetry: newTelemetry(names, chains),
		postcards: new(atomic.Pointer[telemetry.PostcardLog]),
	}
	for i, n := range names {
		c.ids[n] = uint8(i + 1)
	}
	return c, nil
}

// SetPostcardLog switches in-band postcard telemetry on (or, with nil,
// off). While a log is attached, every pipelet traversal of a tagged
// packet stamps a hop record into the SFC context area and the egress
// pipelet that completes the chain decodes the records into the log —
// see internal/telemetry's postcard docs for the wire format. The log
// pointer is atomic: it can be flipped while traffic is running,
// exactly like the switch's own configuration.
func (c *Composer) SetPostcardLog(l *telemetry.PostcardLog) { c.postcards.Store(l) }

// PostcardLog returns the attached postcard log, or nil.
func (c *Composer) PostcardLog() *telemetry.PostcardLog { return c.postcards.Load() }

// NFID returns the meta.next_nf value of an NF.
func (c *Composer) NFID(name string) uint8 { return c.ids[name] }

// orderedNFsOn returns the NFs hosted on a pipelet, ordered by their
// earliest position across the chains (so sequential composition
// consumes chain-consecutive NFs in one pass).
func (c *Composer) orderedNFsOn(pl asic.PipeletID) []nf.NF {
	names := c.Placement.NFsOn(pl)
	pos := func(name string) int {
		best := 1 << 30
		for _, ch := range c.Chains {
			for i, n := range ch.NFs {
				if n == name && i < best {
					best = i
				}
			}
		}
		return best
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := pos(names[i]), pos(names[j])
		if pi != pj {
			return pi < pj
		}
		return names[i] < names[j]
	})
	out := make([]nf.NF, 0, len(names))
	for _, n := range names {
		if f := c.NFs.ByName(n); f != nil {
			out = append(out, f)
		}
	}
	return out
}

// Deployment is the composed output for a whole switch.
type Deployment struct {
	Parser   *p4.ParserGraph
	IDTable  *p4.GlobalIDTable
	Blocks   map[asic.PipeletID]*p4.ControlBlock
	Ingress  []asic.StageFunc // indexed by pipeline
	Egress   []asic.StageFunc
	Composer *Composer
	// Runtime is the routing state the programs read per packet,
	// published to the switch together with them (see Runtime's doc).
	Runtime *Runtime
}

// BlockFor composes the control block of a single pipelet, the unit
// the build pipeline caches and allocates.
func (c *Composer) BlockFor(pl asic.PipeletID) (*p4.ControlBlock, error) {
	return c.PipeletBlock(pl, c.orderedNFsOn(pl), c.Placement.ModeOf(pl))
}

// EmitP4 renders the composed deployment as a single multi-pipeline
// P4-16-style program (§3.2): the merged generic parser followed by
// one control block per pipelet.
func (d *Deployment) EmitP4() (string, error) {
	prog := &p4.Program{
		Name:   "dejavu",
		Parser: d.Parser,
	}
	for _, pl := range d.Composer.Prof.Pipelets() {
		if b := d.Blocks[pl]; b != nil {
			prog.Blocks = append(prog.Blocks, b)
		}
	}
	return p4.EmitProgram(prog)
}

// InstallOn loads the deployment's behavioural programs onto a switch.
// All programs and the routing runtime are published as ONE snapshot
// commit, so packets in flight never straddle two deployment
// generations.
func (d *Deployment) InstallOn(sw *asic.Switch) error {
	b := sw.NewBatch()
	for pipe := 0; pipe < d.Composer.Prof.Pipelines; pipe++ {
		b.SetIngress(pipe, d.Ingress[pipe])
		b.SetEgress(pipe, d.Egress[pipe])
	}
	b.SetApp(d.Runtime)
	return sw.Commit(b)
}

// placedNF pairs an NF hosted on a pipelet with its telemetry counter
// index, resolved once at composition time so the per-packet loop
// counts without a map lookup.
type placedNF struct {
	f      nf.NF
	telIdx int
}

// pipelet is the behavioural program of one pipelet. It holds only
// what the pipelet's NF set, composition mode and the composer's NF
// identities determine; everything chain-dependent is read per packet
// through the snapshot-published Runtime, which is what lets the build
// pipeline keep a compiled program across chain-set changes.
type pipelet struct {
	c        *Composer
	id       asic.PipeletID
	parallel bool
	placed   []placedNF
	// slotOf maps an NF ID (meta.next_nf) to its index in placed, -1 for
	// NFs hosted elsewhere and for ID 0 ("no next NF").
	slotOf []int16
	// classifier is the NF ID untagged packets dispatch to.
	classifier uint8
}

// pipeletFunc builds the behavioural program of one pipelet.
func (c *Composer) pipeletFunc(pl asic.PipeletID, nfs []nf.NF, mode route.Mode) asic.StageFunc {
	p := &pipelet{
		c:          c,
		id:         pl,
		parallel:   mode == route.Parallel,
		slotOf:     make([]int16, len(c.ids)+1),
		classifier: c.ids[route.Classifier],
	}
	for i := range p.slotOf {
		p.slotOf[i] = -1
	}
	for i, f := range nfs {
		p.placed = append(p.placed, placedNF{f: f, telIdx: c.telemetry.nfIndex(f.Name())})
		p.slotOf[c.ids[f.Name()]] = int16(i)
	}
	return p.run
}

// run is one traversal of the pipelet: dispatch to the NFs the packet
// must visit next for as long as they are hosted here (check_nextNF),
// translate SFC flags after each (check_sfcFlags), then branch.
//
// The traversal resolves its packet's chain once, as a P4 program
// carries a table's result to later stages in metadata: path is the
// path ID last resolved, ci its chain index in rt and next that chain's
// check_nextNF row. Only an NF that rewrites the path ID (the
// classifier stamping one, or any other) makes it resolve again.
//
//dv:hotpath
func (p *pipelet) run(ctx *asic.Ctx) {
	rt := runtimeOf(ctx)
	hdr := ctx.Pkt
	if fresh(hdr) {
		// Seed the SFC header's platform metadata copy (Fig. 3):
		// inPort records the physical port the packet was received
		// on — the original one, preserved across recirculations so
		// the control plane can reinject punted packets correctly.
		hdr.SFC.Meta.InPort = uint16(ctx.Meta.InPort) & 0xFFF
		hdr.SFC.Meta.OutPort = nsh.OutPortUnset
	}
	path, ci, next := hdr.SFC.ServicePathID, -1, []uint8(nil)
	if path != 0 { // reserved for unclassified traffic: no chain declares it
		ci, next = rt.chain(path)
	}

	for {
		// Untagged packets go to the classifier; tagged packets consult
		// the chain set of the runtime the packet's snapshot published.
		wasFresh := fresh(hdr)
		id := p.classifier
		if !wasFresh {
			// check_nextNF: one byte of the chain's row (0 past its end).
			id = 0
			if i := int(hdr.SFC.ServiceIndex); i < len(next) {
				id = next[i]
			}
		}
		if int(id) >= len(p.slotOf) {
			break
		}
		ran := p.slotOf[id]
		if ran < 0 {
			break // chain complete, or the next NF lives elsewhere; branching will route it
		}
		p.placed[ran].f.Execute(hdr)
		// The one place an NF execution is counted: into the burst's
		// tally when a switch will flush it, else straight to the shard.
		if i := p.placed[ran].telIdx; !ctx.Tally(nfCell(i)) {
			rt.telemetry.addNF(i, ctx.Shard(), 1)
		}
		if hdr.SFC.ServicePathID != path {
			path = hdr.SFC.ServicePathID
			ci, next = rt.chain(path)
		}
		if wasFresh && hdr.Valid(sfcBit) {
			// The classifier just stamped a path.
			rt.countPath(ci, path, ctx)
		}
		// check_sfcFlags: translate SFC header flags to platform
		// metadata after every NF (§3.2, Fig. 5).
		if stop := checkSFCFlags(hdr, ctx); stop {
			return
		}
		// Advance the service index past the NF that just ran.
		hdr.SFC.Advance()
		if p.parallel {
			break // one NF per traversal on a parallel pipelet
		}
	}

	isIngress := p.id.Dir == asic.Ingress
	if log := rt.postcards.Load(); log != nil {
		postcardHook(log, hdr, ctx, p.id.Pipeline, isIngress) //dv:allow hotpath: postcards are opt-in debug telemetry; the log is lock-guarded by design
	}
	if isIngress {
		applyBranching(rt, ci, hdr, ctx, p.id.Pipeline)
	}
}

// postcardHook runs at the end of a pipelet traversal when postcard
// telemetry is on: it stamps this hop into the SFC context area and, on
// the egress pipelet that completes the chain, decodes the accumulated
// records into the log and strips them from the header so hop keys
// never leave on the wire.
func postcardHook(log *telemetry.PostcardLog, hdr *packetAlias, ctx *asic.Ctx, pipeline int, isIngress bool) {
	if hdr.SFC.ServicePathID == 0 {
		return // never classified: nothing to trace
	}
	dir := telemetry.HopEgress
	if isIngress {
		dir = telemetry.HopIngress
	}
	pass := ctx.Meta.Passes
	if pass > 63 {
		pass = 63
	}
	hop := telemetry.Hop{Pipeline: uint8(pipeline), Dir: dir, Pass: uint8(pass)}
	if err := telemetry.StampHop(&hdr.SFC, hop); err != nil {
		log.NoteTruncated()
	}
	// Chain exit: the Router popped the SFC header (the struct stays
	// readable after PopSFC) or a static-exit chain ran its last NF.
	if !isIngress && (!hdr.Valid(sfcBit) || hdr.SFC.Done()) {
		var buf [telemetry.MaxHops]telemetry.Hop
		hops := telemetry.DecodeHops(&hdr.SFC, buf[:0])
		log.Record(hdr.SFC.ServicePathID, hops)
		telemetry.ClearHops(&hdr.SFC)
	}
}

// fresh reports whether a packet has never been classified. Chains
// reserve path ID 0, so a zero path with no SFC header on the wire
// identifies untouched traffic; a nonzero path with the header popped
// means the Router already terminated the chain.
func fresh(hdr *packetAlias) bool {
	return !hdr.Valid(sfcBit) && hdr.SFC.ServicePathID == 0
}

// checkSFCFlags translates the SFC header's platform metadata flags to
// the platform context, reporting whether processing must stop.
func checkSFCFlags(hdr *packetAlias, ctx *asic.Ctx) (stop bool) {
	m := &hdr.SFC.Meta
	if m.Has(nsh.FlagDrop) {
		ctx.Meta.Drop = true
		return true
	}
	if m.Has(nsh.FlagToCPU) {
		ctx.Meta.ToCPU = true
		return true
	}
	if m.Has(nsh.FlagMirror) {
		// One-shot: translate to a platform mirror and clear the header
		// flag so later passes do not emit further copies.
		m.Clear(nsh.FlagMirror)
		ctx.Meta.Mirror = true
		if port, ok := hdr.SFC.LookupContext(nf.KeyMirrorPort); ok {
			ctx.Meta.MirrorPort = asic.PortID(port)
		}
	}
	if m.Has(nsh.FlagResubmit) {
		m.Clear(nsh.FlagResubmit)
		ctx.Meta.Resubmit = true
	}
	return false
}

// applyBranching runs the §3.4 branching decision at the end of an
// ingress pipelet, against the branching state of the packet's
// snapshot-published runtime; ci is the packet's chain index in rt.
func applyBranching(rt *Runtime, ci int, hdr *packetAlias, ctx *asic.Ctx, pipeline int) {
	if ctx.Meta.Drop || ctx.Meta.ToCPU || ctx.Meta.Resubmit {
		return
	}
	if fresh(hdr) {
		// Untagged packet that found no classifier here: punt.
		ctx.Meta.ToCPU = true
		return
	}
	hop := rt.branching.DecideAt(ci, hdr.SFC.ServiceIndex, pipeline, asic.PortID(hdr.SFC.Meta.OutPort))
	switch hop.Kind {
	case route.HopForward:
		ctx.Meta.OutPort = hop.Port
	case route.HopResubmit:
		ctx.Meta.Resubmit = true
	case route.HopToCPU:
		ctx.Meta.ToCPU = true
	}
}
