package pipeline

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/nf"
	"dejavu/internal/place"
	"dejavu/internal/route"
)

// ResolvePlacement produces the deployment's NF placement and its
// weighted recirculation cost: the provided placement evaluated
// as-is, or one computed by the configured optimizer with the
// classifier pinned to the entry ingress. It also validates every
// NF's control block against the compiler's stage model (per-NF
// demands feed placement feasibility), so a malformed NF fails here
// with a named error rather than deep inside composition. Errors are
// unprefixed; callers add their package context.
func ResolvePlacement(in Inputs) (*route.Placement, route.Cost, error) {
	demand, err := stageDemands(in.NFs, nil, nil)
	if err != nil {
		return nil, route.Cost{}, err
	}
	return resolveWithDemands(in, demand)
}

// stageDemands computes every NF's minimum stage demand
// (compiler.MinStages over its block). The demand is a pure function
// of the block, so with a cache (nil: none) it is served from previous
// builds under the NF's content fingerprint, without asking the NF for
// its block; MinStages itself allocates a shared block once per process.
func stageDemands(nfs nf.List, cache *Cache, fps map[string]string) (map[string]int, error) {
	demand := make(map[string]int, len(nfs))
	for _, f := range nfs {
		h := fps[f.Name()]
		if v, ok := cache.lookup("demand/"+f.Name(), h); ok {
			demand[f.Name()] = v.(int)
			continue
		}
		n, err := compiler.MinStages(f.Block())
		if err != nil {
			return nil, fmt.Errorf("NF %s: %w", f.Name(), err)
		}
		demand[f.Name()] = n
		cache.store("demand/"+f.Name(), h, n)
	}
	return demand, nil
}

// Problem is the placement problem of a build: its profile, chains,
// entry pipeline, pins and the per-NF stage demands. When the chains use
// the classifier it is pinned to the entry ingress pipe, the one home
// route.Plan accepts for it. Both placers' problems are built here: a
// build's optimizer and each fabric switch's anneal.
func Problem(in Inputs, demand map[string]int) place.Problem {
	pin := make(map[string]asic.PipeletID, len(in.Pin)+1)
	maps.Copy(pin, in.Pin)
	if slices.ContainsFunc(in.Chains, func(c route.Chain) bool { return slices.Contains(c.NFs, route.Classifier) }) {
		pin[route.Classifier] = asic.PipeletID{Pipeline: in.Enter, Dir: asic.Ingress}
	}
	return place.Problem{Prof: in.Prof, Chains: in.Chains, Enter: in.Enter, StageDemand: demand, Fixed: pin}
}

// resolveWithDemands is ResolvePlacement with the per-NF stage
// demands already computed (and possibly cache-served).
func resolveWithDemands(in Inputs, demand map[string]int) (*route.Placement, route.Cost, error) {
	if in.Placement != nil {
		cost, err := route.Evaluate(in.Chains, in.Placement, in.Enter)
		if err != nil {
			return nil, route.Cost{}, fmt.Errorf("evaluating placement: %w", err)
		}
		return in.Placement, cost, nil
	}

	prob := Problem(in, demand)
	var res *place.Result
	var err error
	switch in.Optimizer {
	case "naive":
		res, err = place.Naive(prob)
	case "greedy":
		res, err = place.Greedy(prob)
	case "anneal":
		res, err = place.Anneal(prob, place.AnnealOpts{Seed: in.AnnealSeed})
	case "exhaustive", "":
		res, err = place.Exhaustive(prob)
		if errors.Is(err, place.ErrSearchTooLarge) {
			res, err = place.Anneal(prob, place.AnnealOpts{Seed: in.AnnealSeed})
		}
	default:
		return nil, route.Cost{}, fmt.Errorf("unknown optimizer %q", in.Optimizer)
	}
	if err != nil {
		return nil, route.Cost{}, fmt.Errorf("placement: %w", err)
	}
	return res.Placement, res.Cost, nil
}
