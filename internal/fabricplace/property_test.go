package fabricplace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/route"
)

// randomInstance draws one placement problem from the seeded family the
// contract test sweeps: 2-6 switches wired as a duplex line, a ring, or
// a random mix of duplex and one-way wires; dead switches; one to four
// chains over a pool of eight NFs (so
// chains share NFs); per-NF stage demands; uniform or per-switch stage
// budgets; the hop limit on or off.
func randomInstance(rng *rand.Rand) (*Graph, []route.Chain, Options) {
	n := 2 + rng.Intn(5)
	g := NewGraph(n)
	budget := []int{6, 9, 12, 13, 24, 48}[rng.Intn(6)]
	mixed := rng.Intn(4) == 0
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = budget
		if mixed {
			g.Nodes[i].StageBudget = 3 + rng.Intn(budget)
		}
		if i > 0 && rng.Intn(10) == 0 {
			g.Nodes[i].Alive = false
		}
		rng.Intn(7) // a retired health draw, kept so every case stays the same
	}
	wire := func(a, b int, port asic.PortID) {
		rng.Intn(10) // a retired health draw, kept so every case stays the same
		g.AddEdge(a, Edge{To: b, Port: port})
		if rng.Intn(5) != 0 {
			g.AddEdge(b, Edge{To: a, Port: port})
		}
	}
	switch rng.Intn(3) {
	case 0: // line
		for i := 0; i+1 < n; i++ {
			wire(i, i+1, 10)
		}
	case 1: // ring
		for i := 0; i < n; i++ {
			wire(i, (i+1)%n, asic.PortID(10+i))
		}
	default: // random
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(2) == 0 {
					wire(a, b, asic.PortID(10+a*n+b))
				}
			}
		}
	}
	g.Normalize()

	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	demand := make(map[string]int)
	for _, nf := range pool {
		demand[nf] = 1 + rng.Intn(6)
	}
	var chains []route.Chain
	for i, count := 0, 1+rng.Intn(4); i < count; i++ {
		perm := rng.Perm(len(pool))[:1+rng.Intn(5)]
		nfs := make([]string, len(perm))
		for j, k := range perm {
			nfs[j] = pool[k]
		}
		w := 1.0
		if rng.Intn(2) == 0 {
			w = 0.1 + 0.9*rng.Float64()
		}
		chains = append(chains, chain(uint16(10*(i+1)), w, nfs...))
	}
	opts := Options{Entry: 0, StageDemand: demand}
	if rng.Intn(2) == 0 {
		opts.HopLimit = 1 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		opts.StagesPerPass = 6
	}
	return g, chains, opts
}

// checkPlan audits one plan — adopted, or a single portfolio candidate —
// against the ChainPlacement contract and the graph it was computed
// over; it returns the first breach.
func checkPlan(g *Graph, chains []route.Chain, opts Options, res *Result) error {
	used := make(map[int]int)
	for nf, h := range res.Homes {
		if !g.Nodes[h].Alive {
			return fmt.Errorf("NF %q homed on dead switch %d", nf, h)
		}
		used[h] += Demand(opts.StageDemand, nf)
	}
	for s, u := range used {
		if u > g.Nodes[s].StageBudget {
			return fmt.Errorf("switch %d over budget: %d > %d", s, u, g.Nodes[s].StageBudget)
		}
		if res.Used[s] != u {
			return fmt.Errorf("switch %d: Used says %d, homes add up to %d", s, res.Used[s], u)
		}
	}
	for _, c := range chains {
		pl, placed := res.Chains[c.PathID]
		if _, shed := res.Unplaced[c.PathID]; shed == placed {
			return fmt.Errorf("chain %d: placed=%v shed=%v", c.PathID, placed, shed)
		}
		if !placed {
			continue
		}
		if len(pl.Path) != len(pl.Segments) || len(pl.Path) != len(pl.Ports)+1 {
			return fmt.Errorf("chain %d: path %d, segments %d, ports %d", c.PathID, len(pl.Path), len(pl.Segments), len(pl.Ports))
		}
		if pl.Path[0] != opts.Entry {
			return fmt.Errorf("chain %d: path %v does not start at the entry", c.PathID, pl.Path)
		}
		if pl.Cost.CrossHops != len(pl.Path)-1 {
			return fmt.Errorf("chain %d: %d cross hops over path %v", c.PathID, pl.Cost.CrossHops, pl.Path)
		}
		if opts.HopLimit > 0 && pl.Cost.CrossHops > opts.HopLimit {
			return fmt.Errorf("chain %d: %d hops over the limit %d", c.PathID, pl.Cost.CrossHops, opts.HopLimit)
		}
		for i, port := range pl.Ports {
			wired := false
			for _, e := range g.Edges(pl.Path[i]) {
				wired = wired || (e.To == pl.Path[i+1] && e.Port == port)
			}
			if !wired || !g.Nodes[pl.Path[i+1]].Alive {
				return fmt.Errorf("chain %d: hop %d of path %v ports %v is not a live wire", c.PathID, i, pl.Path, pl.Ports)
			}
		}
		var flat []string
		var at []int
		for pos, seg := range pl.Segments {
			for _, nf := range seg {
				flat = append(flat, nf)
				at = append(at, pl.Path[pos])
			}
		}
		if !reflect.DeepEqual(flat, c.NFs) {
			return fmt.Errorf("chain %d: segments %v do not concatenate to %v", c.PathID, pl.Segments, c.NFs)
		}
		if !reflect.DeepEqual(at, pl.Homes) {
			return fmt.Errorf("chain %d: NFs execute on %v, homes say %v", c.PathID, at, pl.Homes)
		}
		for i, nf := range c.NFs {
			if res.Homes[nf] != pl.Homes[i] {
				return fmt.Errorf("chain %d: NF %q at %d, fabric-wide home %d", c.PathID, nf, pl.Homes[i], res.Homes[nf])
			}
		}
	}
	return nil
}

// TestPlaceContractOnRandomFabrics: whichever strategy wins, every
// adopted plan on 3 000 seeded random fabrics honours the documented
// ChainPlacement contract — the one the reconciler installs from and
// the fabric chaos soak audits — stays within every switch's budget and the hop
// limit, and never costs more than the lex candidate.
func TestPlaceContractOnRandomFabrics(t *testing.T) {
	const instances = 3000
	rng := rand.New(rand.NewSource(20190002))
	var lex, lexPlacedMore, breaches int
	for i := 0; i < instances; i++ {
		g, chains, opts := randomInstance(rng)
		res := Place(g, chains, opts)
		err := checkPlan(g, chains, opts, res)
		if err == nil && res.Total.Weighted > res.Baseline.Weighted+1e-9 {
			err = fmt.Errorf("adopted %.3f worse than the lex candidate %.3f", res.Total.Weighted, res.Baseline.Weighted)
		}
		if err != nil {
			breaches++
			if breaches <= 5 {
				t.Errorf("instance %d (%s): %v", i, res.Strategy, err)
			}
		}
		if res.Strategy == "lex" {
			lex++
			if search := searchPlace(g, chains, opts.withDefaults()); len(search.Unplaced) > len(res.Unplaced) {
				lexPlacedMore++
			}
		}
	}
	if breaches > 0 {
		t.Errorf("%d of %d instances breach the placement contract", breaches, instances)
	}
	if lex == 0 {
		t.Error("the family never adopts the lex candidate: the guard's side of the contract went untested")
	}
	t.Logf("lex adopted on %d of %d instances (%.1f%%), %d of them by placing a chain the search sheds",
		lex, instances, 100*float64(lex)/instances, lexPlacedMore)
}
