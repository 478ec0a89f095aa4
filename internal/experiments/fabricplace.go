package experiments

import (
	"fmt"
	"math/rand"

	"dejavu/internal/asic"
	"dejavu/internal/fabricplace"
	"dejavu/internal/route"
)

// placeTopo is one fabric topology the placement comparison runs over.
type placeTopo struct {
	name   string
	graph  func() *fabricplace.Graph
	chains func(rng *rand.Rand) []route.Chain
	demand map[string]int
}

// fpLine3 is a 3-switch line (0-1-2, duplex port 10) with room for the
// whole chain set on the entry switch — the degenerate case where the
// cost-based placer and the lex baseline must agree.
func fpLine3() *fabricplace.Graph {
	g := fabricplace.NewGraph(3)
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = 48
	}
	for i := 0; i+1 < 3; i++ {
		g.AddEdge(i, fabricplace.Edge{To: i + 1, Port: 10})
		g.AddEdge(i+1, fabricplace.Edge{To: i, Port: 10})
	}
	g.Normalize()
	return g
}

// fpDiamond builds the 4-switch diamond 0-1-3 / 0-2-3 (duplex), the
// smallest topology where two chains can take genuinely different
// paths from the shared entry.
func fpDiamond() *fabricplace.Graph {
	g := fabricplace.NewGraph(4)
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = 48
	}
	duplex := func(a, b int, port asic.PortID) {
		g.AddEdge(a, fabricplace.Edge{To: b, Port: port})
		g.AddEdge(b, fabricplace.Edge{To: a, Port: port})
	}
	duplex(0, 1, 10)
	duplex(0, 2, 11)
	duplex(1, 3, 12)
	duplex(2, 3, 13)
	g.Normalize()
	return g
}

// fpWeight derives a deterministic per-chain weight from the seeded
// rng, keeping every chain's traffic share positive so cost deltas
// never collapse to zero.
func fpWeight(rng *rand.Rand) float64 {
	return 0.2 + 0.6*rng.Float64()
}

// fabricPlaceTopos are the recorded topologies: a line where both
// placers tie, and the branching diamond where only a multi-path
// placement avoids snaking the second chain across three hops.
func fabricPlaceTopos() []placeTopo {
	return []placeTopo{
		{
			name:  "line3",
			graph: fpLine3,
			chains: func(rng *rand.Rand) []route.Chain {
				return []route.Chain{
					{PathID: 10, NFs: []string{"classifier", "fw", "router"}, Weight: fpWeight(rng)},
					{PathID: 30, NFs: []string{"classifier", "router"}, Weight: fpWeight(rng)},
				}
			},
			demand: map[string]int{"classifier": 6, "fw": 6, "router": 6},
		},
		{
			name:  "diamond4-branch",
			graph: fpDiamond,
			chains: func(rng *rand.Rand) []route.Chain {
				return []route.Chain{
					{PathID: 11, NFs: []string{"a", "b", "c", "d"}, Weight: fpWeight(rng)},
					{PathID: 12, NFs: []string{"e", "f", "g", "h"}, Weight: fpWeight(rng)},
				}
			},
			demand: map[string]int{
				"a": 22, "b": 22, "c": 22, "d": 22,
				"e": 22, "f": 22, "g": 22, "h": 22,
			},
		},
	}
}

// FabricPlace regenerates the topology-aware placement comparison: for
// seeds 1/7/42 (parameterizing chain traffic weights) and each recorded
// topology, it runs the cost-based placer and reports its spend next to
// the lex-path baseline's under the same model. The run itself enforces
// the acceptance gates — the cost-based plan may never score worse than
// the baseline on any row (the placement portfolio guarantees it), and
// at least one row must be strictly cheaper via a branching (multi-path)
// placement — so a regression fails the experiment, not just a reader's
// eyeball.
func FabricPlace() (Table, error) {
	var rows [][]string
	branchWins := 0
	for _, seed := range []int64{1, 7, 42} {
		for _, topo := range fabricPlaceTopos() {
			rng := rand.New(rand.NewSource(seed))
			chains := topo.chains(rng)
			res := fabricplace.Place(topo.graph(), chains, fabricplace.Options{
				Entry:       0,
				HopLimit:    32,
				StageDemand: topo.demand,
			})
			if len(res.Unplaced) > 0 {
				return Table{}, fmt.Errorf("experiments: fabricplace seed %d %s shed %d chain(s)", seed, topo.name, len(res.Unplaced))
			}
			if res.Total.Weighted > res.Baseline.Weighted+1e-9 {
				return Table{}, fmt.Errorf("experiments: fabricplace seed %d %s: cost-based placement %.3f scored worse than lex baseline %.3f",
					seed, topo.name, res.Total.Weighted, res.Baseline.Weighted)
			}
			verdict := "tie"
			if res.Total.Weighted < res.Baseline.Weighted-1e-9 {
				verdict = "better"
				if res.Branching {
					branchWins++
				}
			}
			rows = append(rows, []string{
				fmt.Sprint(seed), topo.name, fmt.Sprint(len(chains)),
				res.Strategy,
				fmt.Sprintf("%.3f", res.Total.Weighted),
				fmt.Sprintf("%.3f", res.Baseline.Weighted),
				fmt.Sprintf("%d/%d", res.Total.CrossHops, res.Baseline.CrossHops),
				fmt.Sprintf("%d/%d", res.Total.Recircs, res.Baseline.Recircs),
				fmt.Sprint(res.Branching),
				verdict,
			})
		}
	}
	if branchWins == 0 {
		return Table{}, fmt.Errorf("experiments: fabricplace produced no strictly-better branching placement on any row")
	}
	return Table{
		ID:     "fabricplace",
		Title:  "Topology-aware placement vs lex-path baseline (cost = weighted hops + recircs)",
		Header: []string{"seed", "topology", "chains", "strategy", "cost", "lex cost", "hops", "recircs", "branching", "verdict"},
		Rows:   rows,
		Notes: []string{
			"hops and recircs cells are cost-based/baseline raw counts; cost folds chain weights and the 145/75 hop ratio in",
			"the run fails if any row scores worse than the lex baseline or no row wins strictly via a branching placement",
		},
	}, nil
}
