package fabricplace

import (
	"fmt"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/route"
)

// spineGraph is the spine-and-skip wiring of cluster.NewSpineFabric:
// i->i+1 on port 10, i->i+2 on port 11, a Wedge100B's 48 units a switch.
func spineGraph(n int) *Graph {
	g := NewGraph(n)
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = 48
		if i+1 < n {
			g.AddEdge(i, Edge{To: i + 1, Port: 10})
		}
		if i+2 < n {
			g.AddEdge(i, Edge{To: i + 2, Port: 11})
		}
	}
	g.Normalize()
	return g
}

// scaleChains returns n chains shaped like the §5 set (5, 3 and 2 NFs of
// 8 stages) under distinct path IDs. shared=true reuses the five NF
// names in every copy, as the benchmark's fabricplace.place_ms.8sw row
// does: more chains, the same NFs to home. shared=false gives every copy
// its own NFs, so the set needs about n/3 × 50/48 switches.
func scaleChains(n int, shared bool) ([]route.Chain, map[string]int) {
	shapes := [][]string{{"classifier", "fw", "vgw", "lb", "router"}, {"classifier", "vgw", "router"}, {"classifier", "router"}}
	weights := []float64{0.5, 0.3, 0.2}
	demand := make(map[string]int)
	var chains []route.Chain
	for i := 0; i < n; i++ {
		c := route.Chain{PathID: uint16(i + 1), Weight: weights[i%3] * 3 / float64(n)}
		for _, name := range shapes[i%3] {
			if !shared {
				name = fmt.Sprintf("%s%d", name, i/3)
			}
			c.NFs = append(c.NFs, name)
			demand[name] = 8
		}
		chains = append(chains, c)
	}
	return chains, demand
}

// BenchmarkPlaceScale is Place's solve time, graph tables included (the
// graph is rebuilt every iteration, as a reconcile round does), against
// chains × switches; the table is in EXPERIMENTS.md.
func BenchmarkPlaceScale(b *testing.B) {
	prof := asic.Wedge100B()
	for _, size := range []struct{ chains, switches int }{{3, 4}, {12, 8}, {32, 64}, {64, 256}} {
		for _, shared := range []bool{true, false} {
			chains, demand := scaleChains(size.chains, shared)
			opts := Options{HopLimit: 32, StageDemand: demand, Model: DefaultModel(prof), StagesPerPass: 2 * prof.StagesPerPipelet}
			name := fmt.Sprintf("chains=%d/switches=%d/sharedNFs=%v", size.chains, size.switches, shared)
			b.Run(name, func(b *testing.B) {
				var placed, unplaced int
				for i := 0; i < b.N; i++ {
					res := Place(spineGraph(size.switches), chains, opts)
					placed, unplaced = len(res.Chains), len(res.Unplaced)
				}
				b.ReportMetric(float64(placed), "placed")
				b.ReportMetric(float64(unplaced), "shed")
			})
		}
	}
}
