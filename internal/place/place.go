// Package place implements NF placement optimization (§3.3): given a
// set of weighted service chains and a switch profile, choose a pipelet
// for every NF so that the weighted number of packet recirculations is
// minimized, subject to per-pipelet stage budgets.
//
// Four strategies are provided:
//
//   - Naive — the paper's strawman: NFs placed one by one in chain
//     order, alternating between ingress and egress pipes ("this naïve
//     scheme usually results in sub-optimal placements").
//   - Greedy — each NF (in chain order) goes to the feasible pipelet
//     that minimizes the cost of the partial placement.
//   - Exhaustive — enumerates all feasible assignments; exact but
//     exponential, fine for chains the size of the paper's examples.
//   - Anneal — simulated annealing with a deterministic seed for
//     larger problems.
package place

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dejavu/internal/asic"
	"dejavu/internal/route"
)

// frameworkStagesPerNF is the stage overhead the Dejavu wrapper adds
// around each NF on a pipelet (check_nextNF + check_sfcFlags, see
// internal/compose and Table 1).
const frameworkStagesPerNF = 2

// branchingStages is the stage overhead of the ingress branching table.
const branchingStages = 1

// Problem describes one placement instance.
type Problem struct {
	Prof   asic.Profile
	Chains []route.Chain
	// Enter is the pipeline whose ingress pipe receives external
	// traffic.
	Enter int
	// StageDemand gives each NF's own MAU stage demand (from
	// compiler.MinStages); NFs absent from the map default to 1 stage.
	StageDemand map[string]int
	// Fixed pins NFs to pipelets (e.g. the classifier must face
	// external traffic on the entry ingress pipe).
	Fixed map[string]asic.PipeletID
}

// nfNames returns the distinct NF names across the chains, in first-
// appearance order.
func (p Problem) nfNames() []string {
	var names []string
	seen := make(map[string]bool)
	for _, c := range p.Chains {
		for _, n := range c.NFs {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names
}

// pipelets returns all pipelets of the profile.
func (p Problem) pipelets() []asic.PipeletID {
	out := make([]asic.PipeletID, 0, p.Prof.TotalPipelets())
	for pipe := 0; pipe < p.Prof.Pipelines; pipe++ {
		out = append(out, asic.PipeletID{Pipeline: pipe, Dir: asic.Ingress})
		out = append(out, asic.PipeletID{Pipeline: pipe, Dir: asic.Egress})
	}
	return out
}

// demand returns an NF's stage demand.
func (p Problem) demand(name string) int {
	if d, ok := p.StageDemand[name]; ok {
		return d
	}
	return 1
}

// Feasible reports whether a placement fits the per-pipelet stage
// budget under sequential composition, framework overhead included.
// Pins are facts: a pipelet is judged only when it holds an unpinned NF
// (its pinned NFs count toward its load), so one that pins alone
// overload is left to the build's own stage check. An NF not yet
// placed adds nothing, which lets Greedy judge partial placements.
func (p Problem) Feasible(pl *route.Placement) bool { return p.fits(pl, p.nfNames()) }

// fits is Feasible over names, the problem's NFs, which each optimizer
// computes once per run.
func (p Problem) fits(pl *route.Placement, names []string) bool {
	var small [16]int // every shipped profile's pipelets, off the heap
	load := small[:]
	if n := p.Prof.TotalPipelets(); n > len(small) {
		load = make([]int, n)
	}
	slot := func(at asic.PipeletID) *int { return &load[2*at.Pipeline+int(at.Dir)] }
	for _, name := range names {
		if at, ok := pl.Of(name); ok {
			*slot(at) += p.demand(name) + frameworkStagesPerNF
		}
	}
	for _, name := range names {
		at, ok := pl.Of(name)
		if _, pinned := p.Fixed[name]; !ok || pinned {
			continue
		}
		stages := *slot(at)
		if at.Dir == asic.Ingress {
			stages += branchingStages
		}
		if stages > p.Prof.StagesPerPipelet {
			return false
		}
	}
	return true
}

// Validate rejects malformed problems.
func (p Problem) Validate() error {
	if p.Prof.Pipelines < 1 {
		return fmt.Errorf("place: profile has no pipelines")
	}
	if len(p.Chains) == 0 {
		return fmt.Errorf("place: no chains")
	}
	for _, c := range p.Chains {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if p.Enter < 0 || p.Enter >= p.Prof.Pipelines {
		return fmt.Errorf("place: entry pipeline %d out of range", p.Enter)
	}
	for name, at := range p.Fixed {
		if at.Pipeline < 0 || at.Pipeline >= p.Prof.Pipelines || at.Dir > asic.Egress {
			return fmt.Errorf("place: NF %q pinned to nonexistent pipelet %s", name, at)
		}
	}
	return nil
}

// Result is the outcome of one optimizer run.
type Result struct {
	Placement   *route.Placement
	Cost        route.Cost
	Evaluations int // placements evaluated
}

// evaluate scores a placement for traffic entering on p.Enter.
func (p Problem) evaluate(pl *route.Placement) (route.Cost, error) {
	return route.Evaluate(p.Chains, pl, p.Enter)
}

// applyFixed writes pinned assignments into a placement.
func (p Problem) applyFixed(pl *route.Placement) {
	for name, at := range p.Fixed {
		pl.Assign(name, at)
	}
}

// Naive places NFs one by one in chain-appearance order, alternating
// ingress and egress pipes round-robin across pipelines — the §3.3
// strawman.
func Naive(p Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := route.NewPlacement()
	p.applyFixed(pl)
	// Alternate ingress/egress starting at the entry pipeline:
	// ing(enter), eg(enter), ing(enter+1), eg(enter+1), ...
	var order []asic.PipeletID
	for i := 0; i < p.Prof.Pipelines; i++ {
		pipe := (p.Enter + i) % p.Prof.Pipelines
		order = append(order, asic.PipeletID{Pipeline: pipe, Dir: asic.Ingress},
			asic.PipeletID{Pipeline: pipe, Dir: asic.Egress})
	}

	// Each NF goes to the next pipelet in turn with room for it.
	names := p.nfNames()
	slot := 0
	for _, name := range names {
		if _, pinned := p.Fixed[name]; pinned {
			continue
		}
		for tries := 0; tries < len(order); tries++ {
			pl.Assign(name, order[slot%len(order)])
			slot++
			if p.fits(pl, names) {
				break
			}
			delete(pl.NF, name)
		}
		if _, ok := pl.Of(name); !ok {
			return nil, fmt.Errorf("place: naive placement cannot fit NF %q", name)
		}
	}
	cost, err := p.evaluate(pl)
	if err != nil {
		return nil, err
	}
	return &Result{Placement: pl, Cost: cost, Evaluations: 1}, nil
}

// Greedy places NFs in chain-appearance order, each on the feasible
// pipelet minimizing the cost over the chains restricted to already-
// placed NFs.
func Greedy(p Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := route.NewPlacement()
	p.applyFixed(pl)
	placed := make(map[string]bool)
	for n := range p.Fixed {
		placed[n] = true
	}
	names := p.nfNames()
	evals := 0
	for _, name := range names {
		if placed[name] {
			continue
		}
		var best asic.PipeletID
		var bestCost route.Cost
		found := false
		for _, at := range p.pipelets() {
			cand := pl.Clone()
			cand.Assign(name, at)
			if !p.fits(cand, names) {
				continue
			}
			cost, err := partialCost(p, cand)
			if err != nil {
				continue
			}
			evals++
			if !found || cost.Less(bestCost) {
				best, bestCost, found = at, cost, true
			}
		}
		if !found {
			return nil, fmt.Errorf("place: greedy cannot place NF %q", name)
		}
		pl.Assign(name, best)
		placed[name] = true
	}
	cost, err := p.evaluate(pl)
	if err != nil {
		return nil, err
	}
	return &Result{Placement: pl, Cost: cost, Evaluations: evals}, nil
}

// partialCost evaluates the chains truncated to placed NFs.
func partialCost(p Problem, pl *route.Placement) (route.Cost, error) {
	var trunc []route.Chain
	for _, c := range p.Chains {
		var nfs []string
		for _, n := range c.NFs {
			if _, ok := pl.Of(n); ok {
				nfs = append(nfs, n)
			}
		}
		if len(nfs) == 0 {
			continue
		}
		tc := c
		tc.NFs = nfs
		trunc = append(trunc, tc)
	}
	if len(trunc) == 0 {
		return route.Cost{}, nil
	}
	sub := p
	sub.Chains = trunc
	return sub.evaluate(pl)
}

// ErrSearchTooLarge is Exhaustive's refusal of a problem with more than
// maxAssignments candidate assignments (pipelets^unpinned NFs); callers
// match it with errors.Is to fall back to Anneal.
var ErrSearchTooLarge = errors.New("place: too many assignments for exhaustive search; use Anneal")

// maxAssignments bounds Exhaustive's enumeration at 4^12, every
// assignment of 12 unpinned NFs on a two-pipeline (Wedge-100B) profile.
// It counts assignments, not NFs: a profile with more pipelets takes
// fewer unpinned NFs (8 on the eight-pipelet Tofino4).
const maxAssignments = 1 << 24

// searchTooLarge reports whether pipelets^free exceeds maxAssignments,
// without overflowing.
func searchTooLarge(pipelets, free int) bool {
	n := 1
	for i := 0; i < free; i++ {
		if n > maxAssignments/pipelets {
			return true
		}
		n *= pipelets
	}
	return false
}

// Exhaustive enumerates every feasible assignment of unpinned NFs to
// pipelets and returns the optimum. Complexity is
// (2·pipelines)^(unpinned NFs); it is exact for paper-scale problems.
func Exhaustive(p Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	names := p.nfNames()
	var free []string
	for _, n := range names {
		if _, pinned := p.Fixed[n]; !pinned {
			free = append(free, n)
		}
	}
	pipelets := p.pipelets()
	if searchTooLarge(len(pipelets), len(free)) {
		return nil, fmt.Errorf("%w (%d unpinned NFs over %d pipelets, at most %d assignments)",
			ErrSearchTooLarge, len(free), len(pipelets), maxAssignments)
	}

	base := route.NewPlacement()
	p.applyFixed(base)

	var best *Result
	assign := make([]int, len(free))
	evals := 0
	for {
		cand := base.Clone()
		for i, n := range free {
			cand.Assign(n, pipelets[assign[i]])
		}
		if p.fits(cand, names) {
			cost, err := p.evaluate(cand)
			if err == nil {
				evals++
				if best == nil || cost.Less(best.Cost) {
					best = &Result{Placement: cand, Cost: cost}
				}
			}
		}
		// Increment the mixed-radix counter.
		i := 0
		for ; i < len(assign); i++ {
			assign[i]++
			if assign[i] < len(pipelets) {
				break
			}
			assign[i] = 0
		}
		if i == len(assign) {
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("place: no feasible placement exists")
	}
	best.Evaluations = evals
	return best, nil
}

// AnnealOpts parameterizes simulated annealing.
type AnnealOpts struct {
	Seed       int64
	Iterations int // default 20000
}

// The annealing schedule: the starting temperature and the factor it
// cools by after every iteration.
const (
	annealInitTemp = 4.0
	annealCooling  = 0.999
)

// Anneal optimizes the placement with simulated annealing, starting
// from the greedy solution (or naive if greedy fails).
func Anneal(p Problem, opts AnnealOpts) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Iterations == 0 {
		opts.Iterations = 20000
	}
	start, err := Greedy(p)
	if err != nil {
		if start, err = Naive(p); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	names := p.nfNames()
	var free []string
	for _, n := range names {
		if _, pinned := p.Fixed[n]; !pinned {
			free = append(free, n)
		}
	}
	if len(free) == 0 {
		return start, nil
	}
	pipelets := p.pipelets()

	curr := start.Placement.Clone()
	currCost := start.Cost
	best := &Result{Placement: curr.Clone(), Cost: currCost, Evaluations: start.Evaluations}

	temp := annealInitTemp
	score := func(c route.Cost) float64 {
		return c.WeightedRecircs + 0.01*c.WeightedResubmits
	}
	for i := 0; i < opts.Iterations; i++ {
		name := free[rng.Intn(len(free))]
		target := pipelets[rng.Intn(len(pipelets))]
		old, _ := curr.Of(name)
		if target == old {
			continue
		}
		curr.Assign(name, target)
		ok := p.fits(curr, names)
		var cost route.Cost
		if ok {
			cost, err = p.evaluate(curr)
			ok = err == nil
		}
		best.Evaluations++
		accept := false
		if ok {
			delta := score(cost) - score(currCost)
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				accept = true
			}
		}
		if accept {
			currCost = cost
			if cost.Less(best.Cost) {
				best.Placement = curr.Clone()
				best.Cost = cost
			}
		} else {
			curr.Assign(name, old)
		}
		temp *= annealCooling
	}
	return best, nil
}
