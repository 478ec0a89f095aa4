package fabricplace

import (
	"math"
	"reflect"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/route"
)

// lineGraph builds entry->1->...->n-1 with budget units per switch.
func lineGraph(n, budget int) *Graph {
	g := NewGraph(n)
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = budget
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, Edge{To: i + 1, Port: 10})
		g.AddEdge(i+1, Edge{To: i, Port: 10})
	}
	g.Normalize()
	return g
}

// diamondGraph builds 0->1->3 and 0->2->3 (duplex) with budget units
// per switch.
func diamondGraph(budget int) *Graph {
	g := NewGraph(4)
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = budget
	}
	duplex := func(a, b int, port asic.PortID) {
		g.AddEdge(a, Edge{To: b, Port: port})
		g.AddEdge(b, Edge{To: a, Port: port})
	}
	duplex(0, 1, 10)
	duplex(0, 2, 11)
	duplex(1, 3, 12)
	duplex(2, 3, 13)
	g.Normalize()
	return g
}

func chain(id uint16, w float64, nfs ...string) route.Chain {
	return route.Chain{PathID: id, NFs: nfs, Weight: w}
}

func TestNormalizeDedupesAndDropsSelfLoops(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, Edge{To: 0, Port: 5}) // self-loop: dropped
	g.AddEdge(0, Edge{To: 1, Port: 14})
	g.AddEdge(0, Edge{To: 1, Port: 12}) // smallest port wins
	g.Normalize()
	edges := g.Edges(0)
	if len(edges) != 1 {
		t.Fatalf("want 1 deduped edge, got %v", edges)
	}
	if edges[0].Port != 12 {
		t.Fatalf("want smallest-port edge {1,12}, got %+v", edges[0])
	}
}

func TestRouteFollowsDeterministicNextHops(t *testing.T) {
	g := diamondGraph(48)
	path, ports, ok := g.Route(0, 3)
	if !ok {
		t.Fatal("route 0->3 should exist")
	}
	// Two shortest paths exist; the tie-break picks the smaller
	// neighbour (1).
	if !reflect.DeepEqual(path, []int{0, 1, 3}) {
		t.Fatalf("path = %v, want [0 1 3]", path)
	}
	if len(ports) != 2 || ports[0] != 10 || ports[1] != 12 {
		t.Fatalf("ports = %v, want [10 12]", ports)
	}
	if d, ok := g.Dist(0, 3); !ok || d != 2 {
		t.Fatalf("Dist(0,3) = %d,%v want 2,true", d, ok)
	}
}

func TestSharedPathHelpers(t *testing.T) {
	g := diamondGraph(48)
	if l := LongestPathFrom(g, 0, 0); l != 4 {
		t.Fatalf("LongestPathFrom = %d, want 4 (0-1-3-2)", l)
	}
	if l := LongestPathFrom(g, 0, 3); l != 3 {
		t.Fatalf("LongestPathFrom limit 3 = %d", l)
	}
	// Fibonacci many simple paths; only the limit makes this return.
	if l := LongestPathFrom(spineGraph(64), 0, 33); l != 33 {
		t.Fatalf("LongestPathFrom on a 64-switch spine, limit 33 = %d", l)
	}
	path, ports, ok := LexSmallestPath(g, 0, 3)
	if !ok || !reflect.DeepEqual(path, []int{0, 1, 3}) {
		t.Fatalf("LexSmallestPath = %v,%v want [0 1 3]", path, ok)
	}
	if len(ports) != 2 {
		t.Fatalf("ports = %v, want 2 hops", ports)
	}
	if _, _, ok := LexSmallestPath(g, 0, 5); ok {
		t.Fatal("no simple path of 5 switches exists in a 4-node diamond")
	}
}

// Satellite edge case: a disconnected entry switch can host what fits
// locally and must shed the rest with a deterministic reason.
func TestPlaceDisconnectedEntry(t *testing.T) {
	g := NewGraph(3)
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = 10 // two 3-unit NFs + change
	}
	g.AddEdge(1, Edge{To: 2, Port: 10}) // entry 0 has no edges at all
	g.Normalize()
	res := Place(g, []route.Chain{
		chain(10, 1, "a", "b"),
		chain(20, 1, "c", "d", "e"), // 9 more units: cannot fit beside chain 10
	}, Options{Entry: 0})
	if _, ok := res.Chains[10]; !ok {
		t.Fatalf("chain 10 fits on the entry alone, unplaced: %v", res.Unplaced)
	}
	if reason, ok := res.Unplaced[20]; !ok {
		t.Fatal("chain 20 cannot fit on a disconnected entry; want it shed")
	} else if reason == "" {
		t.Fatal("want a reason for the shed chain")
	}
	// A dead entry sheds everything.
	g.Nodes[0].Alive = false
	res = Place(g, []route.Chain{chain(10, 1, "a")}, Options{Entry: 0})
	if len(res.Chains) != 0 || res.Unplaced[10] != "entry switch 0 dead" {
		t.Fatalf("dead entry: chains=%v unplaced=%v", res.Chains, res.Unplaced)
	}
}

// Satellite edge case: self-loop wires must not count as capacity — a
// fabric whose only wire loops back to the entry is still one switch.
func TestPlaceSelfLoopWires(t *testing.T) {
	g := NewGraph(2)
	g.Nodes[0].StageBudget = 6
	g.Nodes[1].StageBudget = 6
	g.AddEdge(0, Edge{To: 0, Port: 7}) // self-loop, ignored
	g.Normalize()
	res := Place(g, []route.Chain{chain(10, 1, "a", "b", "c")}, Options{Entry: 0})
	if len(res.Chains) != 0 {
		t.Fatalf("9 units cannot fit on the 6-unit entry; self-loop must not help: %+v", res.Chains)
	}
	// With a real wire the same chain places across both switches.
	g.AddEdge(0, Edge{To: 1, Port: 10})
	g.Normalize()
	res = Place(g, []route.Chain{chain(10, 1, "a", "b", "c")}, Options{Entry: 0})
	if pl, ok := res.Chains[10]; !ok {
		t.Fatalf("chain should place over the real wire: %v", res.Unplaced)
	} else if !reflect.DeepEqual(pl.Path, []int{0, 1}) {
		t.Fatalf("want both switches used, got path %v", pl.Path)
	}
}

// Satellite edge case: hop-limit exhaustion sheds the chain with a
// hop-limit reason; lifting the limit places it.
func TestPlaceHopLimitExhaustion(t *testing.T) {
	g := lineGraph(5, 3) // one 1-stage NF (3 units) per switch
	chains := []route.Chain{chain(10, 1, "a", "b", "c", "d", "e")}
	res := Place(g, chains, Options{Entry: 0, HopLimit: 2})
	if len(res.Chains) != 0 {
		t.Fatalf("5 NFs over 5 switches need 4 hops; limit 2 must shed: %+v", res.Chains)
	}
	if reason := res.Unplaced[10]; reason != "no feasible placement within 2 fabric hops" {
		t.Fatalf("unplaced reason = %q", reason)
	}
	res = Place(g, chains, Options{Entry: 0, HopLimit: 4})
	pl, ok := res.Chains[10]
	if !ok {
		t.Fatalf("limit 4 suffices: %v", res.Unplaced)
	}
	if pl.Cost.CrossHops != 4 {
		t.Fatalf("cross hops = %d, want 4", pl.Cost.CrossHops)
	}
}

// Satellite edge case: when the short path dies, only a longer-but-
// alive path remains and placement must take it.
func TestPlaceLongerButAlivePathOnly(t *testing.T) {
	g := NewGraph(5)
	for i := range g.Nodes {
		g.Nodes[i].StageBudget = 3
	}
	// Short route 0-1-4 and long route 0-2-3-4.
	g.AddEdge(0, Edge{To: 1, Port: 10})
	g.AddEdge(1, Edge{To: 4, Port: 10})
	g.AddEdge(0, Edge{To: 2, Port: 11})
	g.AddEdge(2, Edge{To: 3, Port: 11})
	g.AddEdge(3, Edge{To: 4, Port: 11})
	g.Normalize()
	g.Nodes[1].Alive = false // short path dead

	res := Place(g, []route.Chain{chain(10, 1, "a", "b")}, Options{Entry: 0, Pins: map[string]int{"a": 0, "b": 4}})
	pl, ok := res.Chains[10]
	if !ok {
		t.Fatalf("longer path 0-2-3-4 is alive; want placement, got %v", res.Unplaced)
	}
	if !reflect.DeepEqual(pl.Path, []int{0, 2, 3, 4}) {
		t.Fatalf("path = %v, want the longer alive path [0 2 3 4]", pl.Path)
	}
	if pl.Cost.CrossHops != 3 {
		t.Fatalf("cross hops = %d, want 3", pl.Cost.CrossHops)
	}
}

// The tentpole scenario: capacity that no single simple path can hold
// places via branching — two chains over non-nested switch subsets —
// strictly beating the lex baseline, which must shed a chain.
func TestPlaceBranchingBeatsLexBaseline(t *testing.T) {
	g := diamondGraph(48)
	demand := map[string]int{}
	for _, n := range []string{"a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"} {
		demand[n] = 22 // 24 units each: two NFs per switch
	}
	chains := []route.Chain{
		chain(10, 0.5, "a1", "a2", "a3", "a4"),
		chain(20, 0.5, "b1", "b2", "b3", "b4"),
	}
	res := Place(g, chains, Options{Entry: 0, StageDemand: demand, StagesPerPass: 24})
	if len(res.Unplaced) != 0 {
		t.Fatalf("192 units fit on the 4x48 diamond, unplaced: %v", res.Unplaced)
	}
	// The lex baseline snakes both chains along the single simple path
	// 0-1-3-2, paying 3 hops for the second chain; the cost-based
	// placer branches it down the 0-2-3 side for 2.
	if !res.Branching {
		t.Fatal("want a branching placement (non-nested switch subsets)")
	}
	if res.Strategy != "cost" {
		t.Fatalf("strategy = %q, want cost", res.Strategy)
	}
	if res.Total.Weighted >= res.Baseline.Weighted {
		t.Fatalf("cost-based total %.2f must beat baseline %.2f", res.Total.Weighted, res.Baseline.Weighted)
	}
}

// The portfolio guarantee: across assorted topologies the adopted plan
// never scores worse than the lex baseline.
func TestPlaceNeverWorseThanBaseline(t *testing.T) {
	graphs := map[string]*Graph{
		"line3":    lineGraph(3, 48),
		"line5":    lineGraph(5, 12),
		"diamond":  diamondGraph(24),
		"diamond2": diamondGraph(9),
	}
	chains := []route.Chain{
		chain(10, 0.5, "classifier", "fw", "vgw", "lb", "router"),
		chain(20, 0.3, "classifier", "vgw", "router"),
		chain(30, 0.2, "classifier", "router"),
	}
	for name, g := range graphs {
		res := Place(g, chains, Options{Entry: 0})
		if res.Total.Weighted > res.Baseline.Weighted+1e-9 {
			t.Errorf("%s: adopted %.3f worse than baseline %.3f", name, res.Total.Weighted, res.Baseline.Weighted)
		}
	}
}

// One placement has one price. Both candidates home chain 20's NFs on
// [0 1 0]; a second scorer used to charge the lex copy one hop for it
// (and report a 1-hop path with segments [[a c] [b]]), so the portfolio
// adopted "lex" at half the cost of the identical "cost" plan.
func TestPlaceOnePriceForOnePlacement(t *testing.T) {
	g := lineGraph(2, 13)
	chains := []route.Chain{chain(10, 1, "a", "c"), chain(20, 1, "a", "b", "c")}
	opts := Options{Entry: 0, StageDemand: map[string]int{"a": 1, "b": 1, "c": 6}}
	res := Place(g, chains, opts)
	if err := checkPlan(g, chains, opts, res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "cost" || res.Total.Weighted != res.Baseline.Weighted {
		t.Fatalf("strategy %q at %.3f against lex %.3f: identical homes must tie",
			res.Strategy, res.Total.Weighted, res.Baseline.Weighted)
	}
	pl := res.Chains[20]
	if !reflect.DeepEqual(pl.Path, []int{0, 1, 0}) || pl.Cost.CrossHops != 2 {
		t.Fatalf("chain 20: path %v, %d hops; want out to switch 1 and back", pl.Path, pl.Cost.CrossHops)
	}
}

// What the portfolio guard is for: the search commits one chain at a
// time and breaks cost ties toward the lower peak load, which can move a
// shared NF off the entry (a later chain then pays a hop to reach it) or
// fragment the capacity a later chain needs. The joint fill does
// neither, and under the one scorer it wins on its merits.
func TestPlaceLexGuardWins(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *Graph
		demand   map[string]int
		chains   []route.Chain
		total    float64
		unplaced int // by the search alone
	}{
		{
			// The search homes d a b on [0 1 1] (peak 8/9, not 9/9), so
			// chain 20 crosses to reach a; the fill keeps a on the entry.
			name: "shared NF kept on the entry", g: lineGraph(3, 9),
			demand: map[string]int{"a": 1, "b": 3, "d": 4},
			chains: []route.Chain{chain(10, 1, "d", "a", "b"), chain(20, 1, "a")},
			total:  145.0 / 75.0,
		},
		{
			// The search homes d c b on [0 1 1], leaving 3 and 2 units: a's
			// 5 fit nowhere. The fill packs d c on the entry and b a behind.
			name: "places a chain the search sheds", g: lineGraph(2, 9),
			demand: map[string]int{"a": 3, "b": 2, "c": 1, "d": 4},
			chains: []route.Chain{chain(10, 1, "d", "c", "b"), chain(20, 1, "a"), chain(30, 1, "d")},
			total:  2 * 145.0 / 75.0, unplaced: 1,
		},
	} {
		opts := Options{Entry: 0, StageDemand: tc.demand}
		res := Place(tc.g, tc.chains, opts)
		if err := checkPlan(tc.g, tc.chains, opts, res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Strategy != "lex" || len(res.Unplaced) != 0 || math.Abs(res.Total.Weighted-tc.total) > 1e-9 {
			t.Errorf("%s: strategy %q, total %.3f, unplaced %v; want lex at %.3f placing everything",
				tc.name, res.Strategy, res.Total.Weighted, res.Unplaced, tc.total)
		}
		search := searchPlace(tc.g, tc.chains, opts.withDefaults())
		if len(search.Unplaced) != tc.unplaced || search.Total.Weighted <= res.Total.Weighted {
			t.Errorf("%s: search alone: %.3f, unplaced %v", tc.name, search.Total.Weighted, search.Unplaced)
		}
	}
}

// candidates runs both portfolio candidates on their own and audits
// each: a plan that homes more on a switch than it holds fails here
// whichever of the two the portfolio would adopt.
func candidates(t *testing.T, g *Graph, chains []route.Chain, opts Options) (search, lex *Result) {
	t.Helper()
	search = searchPlace(g, chains, opts.withDefaults())
	lex = lexBaseline(g, chains, opts.withDefaults())
	for _, res := range []*Result{search, lex} {
		if err := checkPlan(g, chains, opts, res); err != nil {
			t.Fatalf("%s candidate: %v", res.Strategy, err)
		}
	}
	return search, lex
}

// heavy gives every named NF 8 stages: 10 placement units, four to a
// 48-stage switch.
func heavy(nfs ...string) map[string]int {
	d := make(map[string]int)
	for _, n := range nfs {
		d[n] = 8
	}
	return d
}

// Stage usage must survive chain boundaries and revisits. Chain 10
// fills switch 0 (a-d) and puts e on switch 1; chain 20 tops switch 1 up
// to 40 units; chain 30 re-enters switch 1 through the shared e, so its
// i fits there no more.
func TestPlaceBudgetSurvivesPinnedRevisit(t *testing.T) {
	opts := Options{Entry: 0, StageDemand: heavy("a", "b", "c", "d", "e", "f", "g", "h", "i")}
	chains := []route.Chain{
		chain(10, 1, "a", "b", "c", "d", "e"),
		chain(20, 1, "f", "g", "h"),
		chain(30, 1, "e", "i"),
	}
	// Two switches hold eight of the nine NFs: a chain is shed rather
	// than a switch overcommitted.
	search, lex := candidates(t, lineGraph(2, 48), chains, opts)
	if len(search.Unplaced) == 0 || len(lex.Unplaced) == 0 {
		t.Errorf("nine 10-unit NFs placed on 2x48 stages: search shed %v, lex shed %v", search.Unplaced, lex.Unplaced)
	}
	// Three switches: everything places and i spills past e.
	search, lex = candidates(t, lineGraph(3, 48), chains, opts)
	for _, res := range []*Result{search, lex} {
		if len(res.Unplaced) != 0 {
			t.Errorf("%s: shed %v on three switches", res.Strategy, res.Unplaced)
		}
	}
	if lex.Homes["e"] >= lex.Homes["i"] {
		t.Errorf("lex: chain 30 not consecutive: e on %d, i on %d", lex.Homes["e"], lex.Homes["i"])
	}
}

// Usage also accumulates across chains that share no NF: five 10-unit
// chains cannot all claim the entry's 48 stages.
func TestPlaceBudgetAccumulatesAcrossChains(t *testing.T) {
	nfs := []string{"v", "w", "x", "y", "z"}
	var chains []route.Chain
	for i, n := range nfs {
		chains = append(chains, chain(uint16(i+1), 1, n))
	}
	search, lex := candidates(t, lineGraph(2, 48), chains, Options{Entry: 0, StageDemand: heavy(nfs...)})
	for _, res := range []*Result{search, lex} {
		if len(res.Unplaced) != 0 || res.Homes["z"] != 1 {
			t.Errorf("%s: shed %v, z on switch %d; want the fifth chain spilled to 1", res.Strategy, res.Unplaced, res.Homes["z"])
		}
	}
}

// An NF two chains share has one home, and both chains execute it there.
func TestPlaceSharedNFHomedOnce(t *testing.T) {
	chains := []route.Chain{chain(1, 1, "a", "x", "b"), chain(2, 1, "c", "x")}
	search, lex := candidates(t, lineGraph(2, 48), chains, Options{Entry: 0})
	for _, res := range []*Result{search, lex} {
		if _, ok := res.Homes["x"]; !ok || len(res.Chains) != 2 {
			t.Errorf("%s: shared NF homes %v, placed %d chains", res.Strategy, res.Homes, len(res.Chains))
		}
	}
}

func TestGreedySegment(t *testing.T) {
	chains := []route.Chain{chain(1, 1, "a", "b", "c"), chain(2, 1, "d", "b", "e")}
	demand := map[string]int{"a": 2, "b": 2, "c": 2, "d": 2, "e": 2} // 4 units each
	// Budget 8: a b | c ...; chain 2 starts back at 0 (full, so d joins c
	// on 1), follows the shared b home to 0, and e fills from there.
	nfPos, maxPos, ok := greedySegment(chains, demand, 8, 3)
	want := map[string]int{"a": 0, "b": 0, "c": 1, "d": 1, "e": 2}
	if !ok || maxPos != 2 || !reflect.DeepEqual(nfPos, want) {
		t.Fatalf("positions %v, max %d, ok %v; want %v", nfPos, maxPos, ok, want)
	}
	if _, _, ok := greedySegment(chains, demand, 8, 2); ok {
		t.Error("five 4-unit NFs segmented over two 8-unit positions")
	}
	if _, _, ok := greedySegment(chains, demand, 8, 0); ok {
		t.Error("segmented over zero positions")
	}
}

// Load-aware tie-break: among equal-cost homes, pick the switch with
// the most remaining headroom.
func TestPlaceSpreadsByRemainingBudget(t *testing.T) {
	g := NewGraph(3)
	g.Nodes[0].StageBudget = 3
	g.Nodes[1].StageBudget = 3  // would end up 100% loaded
	g.Nodes[2].StageBudget = 48 // same hop cost, far more headroom
	g.AddEdge(0, Edge{To: 1, Port: 10})
	g.AddEdge(0, Edge{To: 2, Port: 11})
	g.Normalize()
	res := Place(g, []route.Chain{chain(10, 1, "x"), chain(20, 1, "y")}, Options{Entry: 0})
	if res.Homes["x"] != 0 {
		t.Fatalf("x should stay on the entry (0 hops), got %d", res.Homes["x"])
	}
	if res.Homes["y"] != 2 {
		t.Fatalf("y: equal hop cost, tie must break toward headroom (switch 2), got %d", res.Homes["y"])
	}
}

// Pins force homes; dead pin targets shed the chain.
func TestPlacePins(t *testing.T) {
	g := lineGraph(3, 48)
	res := Place(g, []route.Chain{chain(10, 1, "a", "b")},
		Options{Entry: 0, Pins: map[string]int{"b": 2}})
	if res.Homes["b"] != 2 {
		t.Fatalf("pin ignored: b homed at %d", res.Homes["b"])
	}
	g.Nodes[2].Alive = false
	g.hops = nil
	res = Place(g, []route.Chain{chain(10, 1, "a", "b")},
		Options{Entry: 0, Pins: map[string]int{"b": 2}})
	if _, ok := res.Chains[10]; ok {
		t.Fatal("pin to a dead switch must shed the chain")
	}
	if res.Unplaced[10] != `NF "b" pinned to dead switch 2` {
		t.Fatalf("reason = %q", res.Unplaced[10])
	}
}

// The classifier is homed on the entry or nowhere: with the entry full
// both candidates shed its chain rather than home it on switch 1, and a
// pin off the entry sheds every chain that uses it, with the reason,
// while a chain without it places.
func TestPlaceHomesTheClassifierOnTheEntry(t *testing.T) {
	// Two 1-stage NFs fit a switch, and x and z fill the entry.
	g := lineGraph(2, 6)
	chains := []route.Chain{chain(10, 1, "x", "z"), chain(20, 0.5, route.Classifier, "y")}
	search, lex := candidates(t, g, chains, Options{Entry: 0})
	for _, res := range []*Result{search, lex} {
		if _, placed := res.Chains[20]; placed || res.Homes["x"] != 0 {
			t.Errorf("%s: homes %v, chain 20 placed %v", res.Strategy, res.Homes, placed)
		}
	}
	if lex.Unplaced[20] != "classifier segmented off the entry switch" {
		t.Errorf("lex reason = %q", lex.Unplaced[20])
	}

	chains = []route.Chain{chain(10, 1, route.Classifier, "a"), chain(20, 0.5, route.Classifier), chain(30, 0.1, "b")}
	res := Place(lineGraph(2, 48), chains, Options{Entry: 0, Pins: map[string]int{route.Classifier: 1}})
	for _, id := range []uint16{10, 20} {
		if want := "classifier pinned to switch 1, off the entry switch 0"; res.Unplaced[id] != want {
			t.Errorf("chain %d: reason %q, want %q", id, res.Unplaced[id], want)
		}
	}
	if _, placed := res.Chains[30]; !placed {
		t.Errorf("chain 30 shed: %q", res.Unplaced[30])
	}
}

// Determinism: the identical inputs always produce the identical
// placement, routes included.
func TestPlaceDeterministic(t *testing.T) {
	demand := map[string]int{"fw": 10, "vgw": 9}
	chains := []route.Chain{
		chain(10, 0.5, "classifier", "fw", "vgw", "lb", "router"),
		chain(20, 0.3, "classifier", "vgw", "router"),
	}
	var first *Result
	for i := 0; i < 5; i++ {
		g := diamondGraph(30)
		res := Place(g, chains, Options{Entry: 0, StageDemand: demand})
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(first.Homes, res.Homes) || !reflect.DeepEqual(first.Chains, res.Chains) {
			t.Fatalf("run %d diverged:\nfirst %+v\n now  %+v", i, first.Homes, res.Homes)
		}
	}
}

func TestDemand(t *testing.T) {
	if Demand(nil, "x") != 3 {
		t.Fatalf("default demand = %d, want 1+2", Demand(nil, "x"))
	}
	if Demand(map[string]int{"x": 8}, "x") != 10 {
		t.Fatalf("demand = %d, want 8+2", Demand(map[string]int{"x": 8}, "x"))
	}
}
