package route

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dejavu/internal/asic"
)

// refBranching is the map-based branching function the compiled tables
// replaced, kept as the reference: it resolves every query against the
// chain set, placement, exit ports and remotes directly.
type refBranching struct {
	chains      map[uint16]Chain
	placement   *Placement
	exitPort    map[uint16]asic.PortID
	remote      map[string]asic.PortID
	loopbackFor func(int) asic.PortID
}

func (b *refBranching) nextNF(path uint16, index uint8) (string, bool) {
	c, ok := b.chains[path]
	if !ok {
		return "", false
	}
	return c.NFAt(index)
}

func (b *refBranching) decide(path uint16, index uint8, curr int, outPort asic.PortID) Hop {
	if outPort != asic.PortUnset {
		return Hop{Kind: HopForward, Port: outPort}
	}
	c, ok := b.chains[path]
	if !ok {
		return Hop{Kind: HopToCPU}
	}
	name, ok := c.NFAt(index)
	if !ok {
		if port, has := b.exitPort[path]; has {
			return Hop{Kind: HopForward, Port: port}
		}
		return Hop{Kind: HopToCPU}
	}
	if port, isRemote := b.remote[name]; isRemote {
		if port == asic.PortUnset { // no wire toward its home
			return Hop{Kind: HopToCPU}
		}
		return Hop{Kind: HopForward, Port: port}
	}
	pl, placed := b.placement.Of(name)
	if !placed {
		return Hop{Kind: HopToCPU}
	}
	if pl == (asic.PipeletID{Pipeline: curr, Dir: asic.Ingress}) {
		return Hop{Kind: HopResubmit}
	}
	target := pl.Pipeline
	eg := asic.PipeletID{Pipeline: target, Dir: asic.Egress}
	if port, has := b.exitPort[path]; has &&
		c.ExitPipeline == target &&
		b.placement.ModeOf(eg) != Parallel &&
		remainderCompletesIn(c, b.placement, len(c.NFs)-int(index), eg) {
		return Hop{Kind: HopForward, Port: port}
	}
	return Hop{Kind: HopForward, Port: b.loopbackFor(target)}
}

// entryFor is the reference for Program: the symbolic entry of one
// (pipeline, path, index).
func (b *refBranching) entryFor(pipe int, c Chain, index uint8) Entry {
	key := EntryKey{Pipeline: pipe, Path: c.PathID, Index: index}
	// A sentinel chooser turns "loopback toward pipeline p" back into
	// the symbolic action.
	saved := b.loopbackFor
	b.loopbackFor = func(p int) asic.PortID { return asic.PortID(0x8000 + p) }
	hop := b.decide(c.PathID, index, pipe, asic.PortUnset)
	b.loopbackFor = saved
	switch {
	case hop.Kind == HopResubmit:
		return Entry{Key: key, Action: ActResubmit}
	case hop.Kind == HopToCPU:
		return Entry{Key: key, Action: ActToCPU}
	case hop.Port >= 0x8000:
		return Entry{Key: key, Action: ActLoopback, Target: int(hop.Port - 0x8000)}
	}
	return Entry{Key: key, Action: ActForward, Port: hop.Port}
}

// TestCompiledDispatchMatchesReference checks the compiled branching
// tables against the reference over random chain sets, placements,
// composition modes, static exits, remotes (with and without a wire),
// unplaced NFs and unknown paths, for every (path, index, pipeline,
// outPort): Decide, and DecideAt of the path's ChainIndex (-1 for a path
// no chain declares), as a traversal calls it.
func TestCompiledDispatchMatchesReference(t *testing.T) {
	const pipelines = 4
	names := []string{"classifier", "fw", "vgw", "lb", "router", "nat", "mirror", "meter"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		placement := NewPlacement()
		ref := &refBranching{
			chains:    make(map[uint16]Chain),
			placement: placement,
			exitPort:  make(map[uint16]asic.PortID),
			remote:    make(map[string]asic.PortID),
		}
		// The chooser depends on the pipeline only, so both sides can
		// call it any number of times.
		chooser := func(p int) asic.PortID { return asic.PortID(100 + 3*p) }
		ref.loopbackFor = chooser

		for _, n := range names {
			switch rng.Intn(8) {
			case 0: // neither placed nor remote
			case 1:
				port := asic.PortID(200 + rng.Intn(8))
				if rng.Intn(4) == 0 {
					port = asic.PortUnset
				}
				placement.AssignRemote(n, port)
				ref.remote[n] = port
			default:
				placement.Assign(n, asic.PipeletID{Pipeline: rng.Intn(pipelines), Dir: asic.Direction(rng.Intn(2))})
			}
		}
		for p := 0; p < pipelines; p++ {
			for _, dir := range []asic.Direction{asic.Ingress, asic.Egress} {
				if rng.Intn(3) == 0 {
					placement.SetMode(asic.PipeletID{Pipeline: p, Dir: dir}, Parallel)
				}
			}
		}
		var chains []Chain
		nChains := 1 + rng.Intn(6)
		for len(chains) < nChains {
			path := uint16(1 + rng.Intn(40))
			if rng.Intn(10) == 0 {
				path = uint16(60000 + rng.Intn(5000)) // large IDs share the table with small ones
			}
			if _, dup := ref.chains[path]; dup {
				continue
			}
			perm := rng.Perm(len(names))[:1+rng.Intn(len(names))]
			c := Chain{PathID: path, ExitPipeline: rng.Intn(pipelines)}
			for _, i := range perm {
				c.NFs = append(c.NFs, names[i])
			}
			if rng.Intn(2) == 0 {
				c.StaticExitPort = asic.PortID(1 + rng.Intn(60))
				ref.exitPort[path] = c.StaticExitPort
			}
			chains = append(chains, c)
			ref.chains[path] = c
		}
		b, err := NewBranching(chains, placement)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b.SetLoopbackChooser(chooser)

		paths := []uint16{0, 41, 59999, 65535} // never installed
		for _, c := range chains {
			paths = append(paths, c.PathID)
		}
		for _, path := range paths {
			gotC, gotOK := b.Chain(path)
			wantC, wantOK := ref.chains[path]
			if gotOK != wantOK || fmt.Sprint(gotC) != fmt.Sprint(wantC) {
				t.Fatalf("seed %d: Chain(%d) = %v,%v want %v,%v", seed, path, gotC, gotOK, wantC, wantOK)
			}
			ci, ok := b.ChainIndex(path)
			if ok != wantOK || (ok && b.ChainAt(ci).PathID != path) {
				t.Fatalf("seed %d: ChainIndex(%d) = %d,%v", seed, path, ci, ok)
			}
			if !ok {
				ci = -1 // what a traversal hands DecideAt for an undeclared path
			}
			for index := 0; index <= len(names)+2; index++ {
				gotN, gotOK := b.NextNF(path, uint8(index))
				wantN, wantOK := ref.nextNF(path, uint8(index))
				if gotN != wantN || gotOK != wantOK {
					t.Fatalf("seed %d: NextNF(%d,%d) = %q,%v want %q,%v", seed, path, index, gotN, gotOK, wantN, wantOK)
				}
				for curr := -1; curr <= pipelines; curr++ {
					for _, out := range []asic.PortID{asic.PortUnset, 0, 7} {
						got := b.Decide(path, uint8(index), curr, out)
						want := ref.decide(path, uint8(index), curr, out)
						if got != want {
							t.Fatalf("seed %d: Decide(path %d, index %d, pipe %d, out %d) = %+v want %+v\nchains %+v\nplacement %+v",
								seed, path, index, curr, out, got, want, chains, placement)
						}
						if got := b.DecideAt(ci, uint8(index), curr, out); got != want {
							t.Fatalf("seed %d: DecideAt(chain %d of path %d, index %d, pipe %d, out %d) = %+v want %+v",
								seed, ci, path, index, curr, out, got, want)
						}
					}
				}
			}
		}

		// The table program is the same function, rendered.
		var want TableProgram
		for pipe := 0; pipe < pipelines; pipe++ {
			for _, c := range chains {
				for idx := 0; idx <= len(c.NFs); idx++ {
					want.Entries = append(want.Entries, ref.entryFor(pipe, c, uint8(idx)))
				}
			}
		}
		sort.Slice(want.Entries, func(i, j int) bool { return keyLess(want.Entries[i].Key, want.Entries[j].Key) })
		if got := b.Program(pipelines); got.String() != want.String() {
			t.Fatalf("seed %d: Program differs from the reference\n got:\n%s\nwant:\n%s", seed, got, want)
		}
		if n := b.BranchingEntries() * pipelines; n != len(want.Entries) {
			t.Fatalf("seed %d: BranchingEntries()*pipelines = %d, program has %d", seed, n, len(want.Entries))
		}
	}
}
