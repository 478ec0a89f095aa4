package compose

import (
	"fmt"
	"sync/atomic"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/route"
	"dejavu/internal/telemetry"
)

// Runtime is the routing state a pipelet program reads per packet: the
// branching function (§3.4) and the postcard-telemetry switch. It is
// published to the switch as the snapshot's opaque application state
// (asic.Batch.SetApp), so programs and routing state always swap
// together: a packet captured under the old snapshot finishes against
// the old branching tables, one captured after the commit sees only
// the new — never a mix.
//
// Keeping this state out of the program closures is what makes the
// closures cacheable across rebuilds: a pipelet whose NF set did not
// change keeps its compiled program verbatim while the runtime (and
// with it the branching decisions) moves underneath it.
//
// A Runtime is immutable once assembled. Besides the branching tables
// it carries check_nextNF compiled against this composer's NF
// identities and the chains' packet counters, both indexed by the
// branching function's compact chain index.
type Runtime struct {
	branching *route.Branching
	postcards *atomic.Pointer[telemetry.PostcardLog]
	// nextID[chain][index] is the ID (meta.next_nf) of the NF a packet
	// at that service index visits next; 0 means none.
	nextID [][]uint8
	// pathCount[chain] counts packets classified onto the chain;
	// telemetry takes the ones on a path no chain declares.
	pathCount []pathCounter
	telemetry *Telemetry
}

// newRuntime assembles the runtime for the composer's current
// branching function, which must be fully configured (exit ports,
// remotes) by now.
func (c *Composer) newRuntime() *Runtime {
	br := c.Branching
	rt := &Runtime{
		branching: br,
		postcards: c.postcards,
		nextID:    make([][]uint8, br.Chains()),
		pathCount: make([]pathCounter, br.Chains()),
		telemetry: c.telemetry,
	}
	for ci := range rt.nextID {
		ch := br.ChainAt(ci)
		row := make([]uint8, len(ch.NFs)+1)
		for j, name := range ch.NFs {
			row[len(ch.NFs)-j] = c.ids[name]
		}
		rt.nextID[ci] = row
		rt.pathCount[ci] = c.telemetry.pathCell(ch.PathID)
	}
	return rt
}

// Branching returns the runtime's branching function.
func (r *Runtime) Branching() *route.Branching { return r.branching }

// chain resolves a path ID to its compact chain index in this runtime
// and the chain's check_nextNF row: next[index] is the ID of the NF a
// packet at that service index visits next, 0 none. A path no chain
// declares (path 0 included) is -1 and an empty row. A traversal
// resolves once and hands the index to countPath and the branching; it
// is only ever read against the runtime it came from.
//
//dv:hotpath
func (r *Runtime) chain(path uint16) (ci int, next []uint8) {
	if ci, ok := r.branching.ChainIndex(path); ok {
		return ci, r.nextID[ci]
	}
	return -1, nil
}

// countPath records one packet classified onto path, whose chain index
// is ci (-1: a path no chain declares).
//
//dv:hotpath
func (r *Runtime) countPath(ci int, path uint16, ctx *asic.Ctx) {
	if ci >= 0 {
		if !ctx.Tally(chainCell(ci)) {
			r.pathCount[ci].add(ctx.Shard(), 1)
		}
		return
	}
	r.telemetry.countUndeclared(path) //dv:allow hotpath: a classifier stamped a path no chain declares; the overflow map is lock-guarded and never touched by a consistent deployment
}

// The burst tally's layout (asic.Ctx.Tally): NF counter indices first,
// then the runtime's chain indices. An index past its range has no cell
// and is counted directly.
const (
	tallyNFs    = 16
	tallyChains = asic.TallyCells - tallyNFs
)

func nfCell(i int) int {
	if uint(i) < tallyNFs {
		return i
	}
	return -1
}

func chainCell(ci int) int {
	if uint(ci) < tallyChains {
		return tallyNFs + ci
	}
	return -1
}

// FlushTally implements asic.TallySink: a burst's NF-execution and path
// counts, added to the shard's cells once. The cells were tallied under
// this runtime, so every non-zero one names an NF or chain it has.
//
//dv:hotpath
func (r *Runtime) FlushTally(shard uint8, cells *[asic.TallyCells]uint32) {
	for i, n := range cells {
		if n == 0 {
			continue
		}
		cells[i] = 0
		if i < tallyNFs {
			r.telemetry.addNF(i, shard, uint64(n))
		} else {
			r.pathCount[i-tallyNFs].add(shard, uint64(n))
		}
	}
}

// runtimeOf resolves the routing state for one packet: the Runtime every
// install path publishes in the switch snapshot with the programs.
func runtimeOf(ctx *asic.Ctx) *Runtime { return ctx.App.(*Runtime) }

// AdoptState carries the mutable, traffic-accumulated state of a
// previous composer generation into this one: the per-NF/per-path
// telemetry counters (extended in place for paths the new chain set
// introduces) and the postcard-log cell. A live reconfiguration calls
// this so counters survive the swap and cached pipelet programs from
// the previous generation — whose closures captured that state — stay
// valid under the new one. The NF universe must be unchanged; only the
// chain set and placement may differ.
func (c *Composer) AdoptState(prev *Composer) error {
	if prev == nil {
		return nil
	}
	if len(prev.ids) != len(c.ids) {
		return fmt.Errorf("compose: cannot adopt state across a different NF universe")
	}
	for name, id := range c.ids {
		if prev.ids[name] != id {
			return fmt.Errorf("compose: cannot adopt state: NF %q changed identity", name)
		}
	}
	c.telemetry = prev.telemetry
	c.postcards = prev.postcards
	return nil
}

// FuncFor composes the behavioural program of a single pipelet — the
// per-pipelet unit the incremental build pipeline caches. The returned
// closure depends only on the pipelet's NF set, composition mode and
// the composer's (stable) NF identity assignment: routing state is
// read through the published Runtime, so the closure stays correct
// across chain-set changes that leave the pipelet's NFs untouched.
func (c *Composer) FuncFor(pl asic.PipeletID) asic.StageFunc {
	return c.pipeletFunc(pl, c.orderedNFsOn(pl), c.Placement.ModeOf(pl))
}

// Assemble packages independently produced per-pipelet artifacts into
// a Deployment, wiring the runtime the programs will read. The build
// pipeline calls it with blocks and funcs that may come from this
// composer or from a cache of a previous generation (AdoptState makes
// the latter safe).
func (c *Composer) Assemble(parser *p4.ParserGraph, idt *p4.GlobalIDTable,
	blocks map[asic.PipeletID]*p4.ControlBlock, ingress, egress []asic.StageFunc) *Deployment {
	return &Deployment{
		Parser:   parser,
		IDTable:  idt,
		Blocks:   blocks,
		Ingress:  ingress,
		Egress:   egress,
		Composer: c,
		Runtime:  c.newRuntime(),
	}
}

// PipeletNFOrder returns the names of the NFs composed on a pipelet in
// composition order (earliest chain position first, name-tiebroken) —
// the order BlockFor and FuncFor use. The build pipeline hashes it so
// a pipelet whose NF set or order changes misses the cache.
func (c *Composer) PipeletNFOrder(pl asic.PipeletID) []string {
	nfs := c.orderedNFsOn(pl)
	out := make([]string, len(nfs))
	for i, f := range nfs {
		out[i] = f.Name()
	}
	return out
}

// ChainNFs returns the NFs the chains use, in first-seen chain order:
// the order the generic parser merges their fragments in (§3).
func ChainNFs(chains []route.Chain) []string {
	var names []string
	seen := make(map[string]bool)
	for _, ch := range chains {
		for _, name := range ch.NFs {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

// MergeParser merges the parser fragments of the named NFs, in order,
// into the generic parser shared by all pipelets (§3), assigning global
// vertex IDs along the way. On a merge conflict it returns what merged
// and p4.MergeParsers' *p4.MergeError, whose fragment indices index
// names. It is a free function so the build pipeline can produce (and
// cache) the parser artifact without a composer.
func MergeParser(names []string, nfs nf.List) (*p4.ParserGraph, *p4.GlobalIDTable, error) {
	graphs := make([]*p4.ParserGraph, len(names))
	for i, name := range names {
		f := nfs.ByName(name)
		if f == nil {
			return nil, nil, fmt.Errorf("compose: NF %q has no implementation", name)
		}
		graphs[i] = f.Parser()
	}
	table := p4.NewGlobalIDTable()
	merged, err := p4.MergeParsers(table, graphs...)
	return merged, table, err
}
