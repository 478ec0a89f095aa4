package fabricplace

import (
	"fmt"
	"slices"
	"sort"

	"dejavu/internal/asic"
	"dejavu/internal/route"
)

// CostModel weighs the three currencies a fabric placement spends,
// mirroring the paper's Fig. 5/Fig. 8 latency model: a cross-switch hop
// is an off-chip DAC traversal, a recirculation is an on-chip loop.
type CostModel struct {
	// HopCost is the cost of one cross-switch wire hop, in units of one
	// on-switch recirculation (the paper measures ~145ns off-chip vs
	// ~75ns on-chip, so ≈1.93).
	HopCost float64
}

const (
	// recircCost is the cost of one on-switch recirculation (the unit).
	recircCost = 1.0
	// unplacedPenalty is charged per shed chain so totals stay
	// comparable between plans that place different chain counts. It
	// must dwarf any realistic routing cost.
	unplacedPenalty = 1000.0
	// maxStates bounds the home-assignment search per placement run.
	// When exhausted the best placement found so far still wins, so the
	// cap trades optimality, never correctness.
	maxStates = 1 << 18
)

// DefaultModel derives the cost model from an ASIC profile: the hop
// weight is the measured off-chip/on-chip recirculation latency ratio.
func DefaultModel(prof asic.Profile) CostModel {
	hop := 145.0 / 75.0
	if prof.RecircOnChip > 0 && prof.RecircOffChip > 0 {
		hop = float64(prof.RecircOffChip) / float64(prof.RecircOnChip)
	}
	return CostModel{HopCost: hop}
}

// Cost is a placement's spend under a CostModel. The integer fields are
// raw (unweighted) counts; Weighted folds chain weights and the model
// in — it is the single number placements are ranked by.
type Cost struct {
	CrossHops int     `json:"cross_hops"`
	Recircs   int     `json:"recircs"`
	Weighted  float64 `json:"weighted"`
}

func (c *Cost) add(o Cost) {
	c.CrossHops += o.CrossHops
	c.Recircs += o.Recircs
	c.Weighted += o.Weighted
}

// Options parameterizes a placement run.
type Options struct {
	// Entry is the switch where every chain's traffic enters the fabric.
	Entry int
	// HopLimit caps the wire hops any single chain's route may take;
	// 0 means unlimited.
	HopLimit int
	// StageDemand is the per-NF MAU stage demand (nil: 1 stage each).
	StageDemand map[string]int
	// Pins force NFs onto specific home switches (the intent plane's
	// fabric placement hints). The lex baseline predates pins, so when
	// any pin is set the baseline is reported but never adopted.
	Pins map[string]int
	// Model is the cost model; zero value means DefaultModel of an
	// unspecified profile (145/75 hop ratio).
	Model CostModel
	// StagesPerPass is how many placement units one pipelet pass covers
	// (2 × stages-per-pipelet); it drives the recirculation estimate.
	// 0 means 24, the Wedge100B value.
	StagesPerPass int
}

func (o Options) withDefaults() Options {
	if o.Model == (CostModel{}) {
		o.Model = DefaultModel(asic.Profile{})
	}
	if o.StagesPerPass <= 0 {
		o.StagesPerPass = 24
	}
	return o
}

// ChainPlacement is one chain's realized placement: a home switch per
// NF and the forwarding route that visits them in order.
type ChainPlacement struct {
	PathID uint16 `json:"chain"`
	// Homes is the home switch of each NF, parallel to the chain's NFs.
	Homes []int `json:"homes"`
	// Path is the switch sequence traffic follows, entry first. It may
	// revisit a switch (forwarding is per-destination, not simple-path).
	Path []int `json:"path"`
	// Ports holds the egress port taken at each hop (len(Path)-1).
	Ports []asic.PortID `json:"-"`
	// Segments lists the NFs executed at each Path position (empty for
	// transit positions), concatenating to the chain's NF order.
	Segments [][]string `json:"segments"`
	// Cost is this chain's individual spend under the model.
	Cost Cost `json:"cost"`
}

// Result is a full fabric placement: per-chain placements, the shared
// NF home map, and the cost-based vs lex-path candidate comparison.
type Result struct {
	// Chains maps placed path IDs to their placement.
	Chains map[uint16]*ChainPlacement
	// Homes maps every placed NF to its home switch.
	Homes map[string]int
	// Used is the stage-demand units consumed per switch.
	Used map[int]int
	// Unplaced maps shed chains to the reason.
	Unplaced map[uint16]string
	// Total is the adopted plan's cost, unplaced penalties included.
	Total Cost
	// Baseline is the lex-path candidate's cost on the same graph and
	// chain set: the historical single-path home assignment, routed and
	// priced by the same function as the search's plan.
	Baseline Cost
	// Branching reports that two placed chains use non-nested switch
	// subsets — a genuinely multi-path placement no single shared
	// simple path could express.
	Branching bool
	// Strategy is "cost" when the per-chain search won, "lex" when the
	// joint segmentation was adopted: the search commits chains one at a
	// time, heaviest first, so on a minority of inputs the joint fill is
	// cheaper or places a chain the search sheds. Without pins,
	// Total <= Baseline always.
	Strategy string
	// Truncated reports the search hit maxStates somewhere.
	Truncated bool
}

// Place computes a fabric placement for the chain set over the graph.
// It runs the per-chain cost-based search AND the lex-path joint
// segmentation, prices both with realize, adopts whichever plan is
// cheaper under the model (the lex one only when no pins are set), and
// reports both costs so experiments can gate on adopted ≤ baseline.
// Deterministic: chains are placed heaviest-first (ties toward the
// smaller path ID), switch candidates are scanned ascending, and score
// ties break toward the lower peak switch load, then the
// lexicographically smallest home assignment.
func Place(g *Graph, chains []route.Chain, opts Options) *Result {
	opts = opts.withDefaults()
	res := searchPlace(g, chains, opts)
	base := lexBaseline(g, chains, opts)
	res.Baseline = base.Total
	if len(opts.Pins) == 0 && base.Total.Weighted < res.Total.Weighted-1e-9 {
		// Portfolio guard: Place never returns a plan worse than the lex
		// candidate.
		base.Baseline = base.Total
		base.Truncated = res.Truncated
		res = base
	}
	res.Branching = branching(res.Chains)
	return res
}

func newResult(strategy string) *Result {
	return &Result{
		Chains:   make(map[uint16]*ChainPlacement),
		Homes:    make(map[string]int),
		Used:     make(map[int]int),
		Unplaced: make(map[uint16]string),
		Strategy: strategy,
	}
}

// placeOrder returns the chains heaviest-first, ties toward the smaller
// path ID, so contended capacity goes to the traffic that values it
// most and the order never depends on input ordering.
func placeOrder(chains []route.Chain) []route.Chain {
	out := append([]route.Chain(nil), chains...)
	sort.SliceStable(out, func(i, j int) bool {
		wi, wj := out[i].EffectiveWeight(), out[j].EffectiveWeight()
		if wi != wj {
			return wi > wj
		}
		return out[i].PathID < out[j].PathID
	})
	return out
}

// searchPlace is the cost-based engine: for each chain in placement
// order, enumerate feasible home assignments under budget, reachability
// and the hop limit, score them, and commit the best.
func searchPlace(g *Graph, chains []route.Chain, opts Options) *Result {
	res := newResult("cost")
	entryBad := opts.Entry < 0 || opts.Entry >= g.NumNodes() || !g.Nodes[opts.Entry].Alive
	states := maxStates
	for _, c := range placeOrder(chains) {
		if entryBad {
			res.Unplaced[c.PathID] = fmt.Sprintf("entry switch %d dead", opts.Entry)
			continue
		}
		pl, reason, truncated := placeChain(g, c, res.Homes, res.Used, opts, &states)
		if truncated {
			res.Truncated = true
		}
		if pl == nil {
			res.Unplaced[c.PathID] = reason
			res.Total.Weighted += unplacedPenalty * c.EffectiveWeight()
			continue
		}
		for i, n := range c.NFs {
			if _, ok := res.Homes[n]; !ok {
				res.Homes[n] = pl.Homes[i]
				res.Used[pl.Homes[i]] += Demand(opts.StageDemand, n)
			}
		}
		res.Chains[c.PathID] = pl
		res.Total.add(pl.Cost)
	}
	return res
}

// placeChain searches home assignments for one chain. homes/used are
// the committed state from already-placed chains (shared NFs keep their
// homes; their budget is already charged).
func placeChain(g *Graph, c route.Chain, homes map[string]int, used map[int]int, opts Options, states *int) (pl *ChainPlacement, reason string, truncated bool) {
	w := c.EffectiveWeight()
	m := opts.Model

	// Candidate homes per NF position, ascending: the committed home,
	// the pin (the entry, for the classifier), or every alive switch.
	cands := make([][]int, len(c.NFs))
	charge := make([]int, len(c.NFs)) // units to charge if newly placed
	for i, n := range c.NFs {
		if h, ok := homes[n]; ok {
			if !g.Nodes[h].Alive {
				return nil, fmt.Sprintf("NF %q homed on dead switch %d", n, h), false
			}
			cands[i] = []int{h}
			continue
		}
		charge[i] = Demand(opts.StageDemand, n)
		p, pinned := opts.Pins[n]
		if n == route.Classifier { // untagged traffic meets it first
			if pinned && p != opts.Entry {
				return nil, fmt.Sprintf("classifier pinned to switch %d, off the entry switch %d", p, opts.Entry), false
			}
			p, pinned = opts.Entry, true
		}
		if pinned {
			if p < 0 || p >= g.NumNodes() || !g.Nodes[p].Alive {
				return nil, fmt.Sprintf("NF %q pinned to dead switch %d", n, p), false
			}
			cands[i] = []int{p}
			continue
		}
		for s := 0; s < g.NumNodes(); s++ {
			if g.Nodes[s].Alive {
				cands[i] = append(cands[i], s)
			}
		}
		if len(cands[i]) == 0 {
			return nil, "no alive switch can host the chain", false
		}
	}

	type leaf struct {
		assign   []int
		weighted float64
		maxLoad  float64
	}
	var best *leaf
	assign := make([]int, len(c.NFs))
	add := make(map[int]int)

	// segUnits tracks the in-flight consecutive same-home run so the
	// recirculation estimate accrues as the DFS descends, keeping the
	// partial score an exact prefix cost (safe to prune on).
	//
	// Determinism contract: the scoring loop is deterministic by
	// construction — candidate order, pruning and tie-breaks are fixed,
	// and no randomness, clock read or map iteration feeds the score.
	// The detrand analyzer enforces this package-wide (no naked
	// time.Now / global math/rand); it needs no //dv:allow waiver here
	// and adding one without a concrete finding would be unjustified.
	var dfs func(pos, at, hops int, partial float64, segUnits int)
	dfs = func(pos, at, hops int, partial float64, segUnits int) {
		for _, h := range cands[pos] {
			if *states <= 0 {
				truncated = true
				return
			}
			*states--
			d, ok := g.Dist(at, h)
			if !ok {
				continue
			}
			nh := hops + d
			if opts.HopLimit > 0 && nh > opts.HopLimit {
				continue
			}
			need := charge[pos]
			if need > 0 && used[h]+add[h]+need > g.Nodes[h].StageBudget {
				continue
			}
			step := m.HopCost * float64(d) * w
			nextUnits := segUnits
			if d > 0 || pos == 0 {
				// New segment starts at h; close the previous run.
				nextUnits = 0
			}
			before := nextUnits
			nextUnits += Demand(opts.StageDemand, c.NFs[pos])
			step += recircCost * float64(passes(nextUnits, opts.StagesPerPass)-passes(max(before, 1), opts.StagesPerPass)) * w
			np := partial + step
			if best != nil && np > best.weighted+1e-9 {
				// The remaining NFs can only add cost; a strictly worse
				// prefix cannot beat the incumbent. Equal prefixes keep
				// going — they may still win the load-spread tie-break.
				continue
			}
			assign[pos] = h
			add[h] += need
			if pos == len(c.NFs)-1 {
				ml := peakLoad(g, used, add)
				if best == nil || np < best.weighted-1e-9 ||
					(np < best.weighted+1e-9 && ml < best.maxLoad-1e-9) {
					best = &leaf{assign: append([]int(nil), assign...), weighted: np, maxLoad: ml}
				}
			} else {
				dfs(pos+1, h, nh, np, nextUnits)
			}
			add[h] -= need
		}
	}
	dfs(0, opts.Entry, 0, 0, 0)

	if best == nil {
		if truncated {
			return nil, "placement search budget exhausted", true
		}
		if opts.HopLimit > 0 {
			return nil, fmt.Sprintf("no feasible placement within %d fabric hops", opts.HopLimit), false
		}
		return nil, "does not fit on surviving topology", false
	}
	pl = realize(g, c, best.assign, opts)
	if pl == nil {
		return nil, "no usable route over surviving topology", truncated
	}
	return pl, "", truncated
}

// passes returns how many pipelet passes a segment of the given
// stage-demand units needs (≥1); passes-1 is its recirculation count.
func passes(units, perPass int) int {
	if units <= 0 {
		return 1
	}
	return (units + perPass - 1) / perPass
}

// peakLoad returns the highest fractional stage utilization any switch
// would reach, the load-aware tie-break: among equal-cost placements
// prefer the one that keeps the hottest switch coolest.
func peakLoad(g *Graph, used, add map[int]int) float64 {
	var peak float64
	for s, extra := range add {
		total := used[s] + extra
		budget := g.Nodes[s].StageBudget
		if budget <= 0 {
			budget = 1
		}
		peak = max(peak, float64(total)/float64(budget))
	}
	return peak
}

// realize expands a home assignment into the concrete route, segments
// and cost, using the deterministic per-destination forwarding tables —
// the same tables the reconciler programs, so estimated and installed
// routes cannot diverge.
func realize(g *Graph, c route.Chain, homesSeq []int, opts Options) *ChainPlacement {
	w := c.EffectiveWeight()
	m := opts.Model
	pl := &ChainPlacement{
		PathID: c.PathID,
		Homes:  append([]int(nil), homesSeq...),
		Path:   []int{opts.Entry},
	}
	segs := [][]string{nil}
	at := opts.Entry
	var segUnits int
	flushRecircs := func() {
		if segUnits > 0 {
			pl.Cost.Recircs += passes(segUnits, opts.StagesPerPass) - 1
			segUnits = 0
		}
	}
	for i, h := range homesSeq {
		if h != at {
			flushRecircs()
			path, ports, ok := g.Route(at, h)
			if !ok {
				return nil
			}
			pl.Cost.CrossHops += len(path) - 1
			for j := 1; j < len(path); j++ {
				pl.Path = append(pl.Path, path[j])
				pl.Ports = append(pl.Ports, ports[j-1])
				segs = append(segs, nil)
			}
			at = h
		}
		segs[len(segs)-1] = append(segs[len(segs)-1], c.NFs[i])
		segUnits += Demand(opts.StageDemand, c.NFs[i])
	}
	flushRecircs()
	pl.Segments = segs
	pl.Cost.Weighted = w * (m.HopCost*float64(pl.Cost.CrossHops) +
		recircCost*float64(pl.Cost.Recircs))
	return pl
}

// lexBaseline is the portfolio's second candidate, the historical
// placer's home assignment: one lexicographically-smallest simple path
// from the entry, every chain segmented consecutively along it (greedy
// fill with cross-chain NF pinning), shedding the largest-demand chain
// on overflow. Only the homes come from the shared path — each chain's
// route, segments and cost are realize's, so both candidates are priced
// by the function whose routes the reconciler installs.
func lexBaseline(g *Graph, chains []route.Chain, opts Options) *Result {
	res := newResult("lex")
	shed := func(c route.Chain, reason string) {
		res.Unplaced[c.PathID] = reason
		res.Total.Weighted += unplacedPenalty * c.EffectiveWeight()
	}
	if opts.Entry < 0 || opts.Entry >= g.NumNodes() || !g.Nodes[opts.Entry].Alive {
		for _, c := range chains {
			shed(c, fmt.Sprintf("entry switch %d dead", opts.Entry))
		}
		return res
	}
	lmax := 0
	if opts.HopLimit > 0 {
		// A shared path of L switches costs a full-length chain L-1 hops.
		lmax = opts.HopLimit + 1
	}
	lmax = LongestPathFrom(g, opts.Entry, lmax)
	// The historical planner assumed one uniform per-switch budget.
	budget := g.Nodes[opts.Entry].StageBudget

	active := append([]route.Chain(nil), chains...)
	for len(active) > 0 {
		nfPos, maxPos, ok := greedySegment(active, opts.StageDemand, budget, lmax)
		var path []int
		if ok {
			path, _, ok = LexSmallestPath(g, opts.Entry, maxPos+1)
		}
		if !ok || !withinBudgets(g, opts.StageDemand, nfPos, path) {
			i := dropCandidate(active, opts.StageDemand)
			shed(active[i], fmt.Sprintf("does not fit on surviving topology (%d reachable switches)", lmax))
			active = append(active[:i], active[i+1:]...)
			continue
		}
		for _, c := range active {
			homes := make([]int, len(c.NFs))
			for i, n := range c.NFs {
				homes[i] = path[nfPos[n]]
			}
			if i := slices.Index(c.NFs, route.Classifier); i >= 0 && homes[i] != opts.Entry {
				shed(c, "classifier segmented off the entry switch")
				continue
			}
			// Shared NFs can pull a chain back up the path, where a
			// directed wiring may offer no return route, and the detours
			// count against the hop limit like any other hop.
			pl := realize(g, c, homes, opts)
			if pl == nil {
				shed(c, "no usable route over surviving topology")
				continue
			}
			if opts.HopLimit > 0 && pl.Cost.CrossHops > opts.HopLimit {
				shed(c, fmt.Sprintf("no feasible placement within %d fabric hops", opts.HopLimit))
				continue
			}
			res.Chains[c.PathID] = pl
			res.Total.add(pl.Cost)
			for i, n := range c.NFs {
				if _, seen := res.Homes[n]; !seen {
					res.Homes[n] = homes[i]
					res.Used[homes[i]] += Demand(opts.StageDemand, n)
				}
			}
		}
		return res
	}
	return res
}

// withinBudgets reports whether a joint segmentation, laid along path,
// respects every switch's own stage budget (greedySegment fills against
// the entry's).
func withinBudgets(g *Graph, stageDemand map[string]int, nfPos map[string]int, path []int) bool {
	used := make(map[int]int)
	for n, pos := range nfPos {
		used[path[pos]] += Demand(stageDemand, n)
	}
	for s, u := range used {
		if u > g.Nodes[s].StageBudget {
			return false
		}
	}
	return true
}

// greedySegment is the joint consecutive segmentation: positions
// 0..n-1 filled greedily, chain by chain, with a shared per-position
// budget; an NF an earlier chain already placed keeps its position and
// moves the chain there. Returns each NF's position and the highest
// position used.
func greedySegment(chains []route.Chain, stageDemand map[string]int, budget, n int) (nfPos map[string]int, maxPos int, ok bool) {
	if n < 1 {
		return nil, 0, false
	}
	nfPos = make(map[string]int)
	used := make([]int, n)
	for _, ch := range chains {
		sw := 0
		for _, name := range ch.NFs {
			if prev, pinned := nfPos[name]; pinned {
				sw = prev
				continue
			}
			d := Demand(stageDemand, name)
			for used[sw]+d > budget {
				sw++
				if sw >= n {
					return nil, 0, false
				}
			}
			nfPos[name] = sw
			used[sw] += d
			if sw > maxPos {
				maxPos = sw
			}
		}
	}
	return nfPos, maxPos, true
}

// dropCandidate picks the chain to shed when the topology cannot host
// everything: largest total stage demand, ties toward the highest path
// ID — deterministic, and it frees the most capacity per drop.
func dropCandidate(chains []route.Chain, stageDemand map[string]int) int {
	best, bestDemand := 0, -1
	for i, c := range chains {
		d := 0
		for _, n := range c.NFs {
			d += Demand(stageDemand, n)
		}
		if d > bestDemand || (d == bestDemand && c.PathID > chains[best].PathID) {
			best, bestDemand = i, d
		}
	}
	return best
}

// branching reports whether two placed chains occupy non-nested switch
// subsets — the signature of a true multi-path placement.
func branching(chains map[uint16]*ChainPlacement) bool {
	sets := make([]map[int]bool, 0, len(chains))
	for _, pl := range chains {
		set := make(map[int]bool)
		for _, s := range pl.Path {
			set[s] = true
		}
		sets = append(sets, set)
	}
	subset := func(a, b map[int]bool) bool {
		for s := range a {
			if !b[s] {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if !subset(sets[i], sets[j]) && !subset(sets[j], sets[i]) {
				return true
			}
		}
	}
	return false
}
