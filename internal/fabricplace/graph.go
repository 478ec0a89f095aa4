// Package fabricplace is the topology-aware fabric placement engine:
// it models a multi-switch fabric as a weighted directed graph (per-hop
// wire latency, per-switch remaining stage budget, switch liveness) and
// places each service chain's NFs onto switches by cost — cross-switch
// hops weighed against on-switch recirculations under the paper's
// latency model — instead of segmenting every chain along one
// lexicographically-smallest path. Different chains may be routed over
// different switch subsets (branching placement), and ties are broken
// toward the least-loaded switches so one spine does not become a
// hotspot. That historical single-path assignment survives as the
// second candidate of a two-plan portfolio (LongestPathFrom,
// LexSmallestPath, greedySegment); both candidates are routed over the
// same per-destination next-hop tables and priced by the same function,
// the one whose routes the fabric reconciler installs. Everything here is
// deterministic: the same graph, chain set and options always produce
// the identical placement (see DESIGN.md §14 for the objective and the
// tie-breaking order).
package fabricplace

import (
	"sort"

	"dejavu/internal/asic"
)

// Node is one fabric switch as the placement engine sees it.
type Node struct {
	// Alive is false for dead switches: they host nothing and carry
	// nothing.
	Alive bool
	// StageBudget is the switch's total MAU stage capacity in placement
	// units (NF stage demand + framework wrapper).
	StageBudget int
}

// Edge is one directed inter-switch wire usable for placement.
type Edge struct {
	// To is the neighbouring switch the wire reaches.
	To int
	// Port is the local egress port the wire leaves from.
	Port asic.PortID
}

// Graph is the weighted placement view of a fabric: liveness-filtered
// nodes and directed edges. Build one per placement decision (it
// memoizes next-hop tables and is not safe for concurrent use).
type Graph struct {
	Nodes []Node
	adj   [][]Edge

	// hops caches per-destination next-hop tables, built lazily.
	hops map[int]*hopTable
}

// NewGraph creates an empty graph over n switches; every node starts
// alive with a zero stage budget.
func NewGraph(n int) *Graph {
	g := &Graph{Nodes: make([]Node, n), adj: make([][]Edge, n)}
	for i := range g.Nodes {
		g.Nodes[i].Alive = true
	}
	return g
}

// AddEdge registers a directed edge. Self-loop wires are ignored: a
// wire from a switch to itself cannot advance a chain, only burn hop
// budget. Call Normalize after the last AddEdge.
func (g *Graph) AddEdge(from int, e Edge) {
	if from < 0 || from >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) || e.To == from {
		return
	}
	g.adj[from] = append(g.adj[from], e)
}

// Normalize dedupes parallel edges — keeping, per (from, to) pair, the
// wire with the smallest egress port — and sorts
// each adjacency list ascending by neighbour so every path search in
// this package is deterministic. Idempotent.
func (g *Graph) Normalize() {
	for from := range g.adj {
		best := make(map[int]Edge)
		for _, e := range g.adj[from] {
			if prev, ok := best[e.To]; !ok || e.Port < prev.Port {
				best[e.To] = e
			}
		}
		edges := make([]Edge, 0, len(best))
		for _, e := range best {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].To < edges[j].To })
		g.adj[from] = edges
	}
	g.hops = nil // adjacency changed; drop memoized tables
}

// Edges returns the (normalized) directed edges leaving a switch.
func (g *Graph) Edges(from int) []Edge {
	if from < 0 || from >= len(g.adj) {
		return nil
	}
	return g.adj[from]
}

// NumNodes returns the switch count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// hopTable is the per-destination routing table: for every source
// switch, the distance to the destination in wire hops and the edge to
// take next.
type hopTable struct {
	dist  []int
	via   []Edge
	hasit []bool
}

// table returns (building if needed) the next-hop table toward dst.
// Routing is BFS shortest-path over alive elements with a fixed
// tie-break — the smallest neighbour, then the smallest port (the one
// Normalize keeps) — so forwarding toward a destination is a
// loop-free tree and identical across runs.
func (g *Graph) table(dst int) *hopTable {
	if t, ok := g.hops[dst]; ok {
		return t
	}
	n := len(g.Nodes)
	t := &hopTable{
		dist:  make([]int, n),
		via:   make([]Edge, n),
		hasit: make([]bool, n),
	}
	if dst < 0 || dst >= n || !g.Nodes[dst].Alive {
		if g.hops == nil {
			g.hops = make(map[int]*hopTable)
		}
		g.hops[dst] = t
		return t
	}
	// Reverse adjacency for the BFS from dst.
	rev := make([][]int, n) // switches with an edge INTO the key switch
	for from := range g.adj {
		for _, e := range g.adj[from] {
			rev[e.To] = append(rev[e.To], from)
		}
	}
	t.dist[dst], t.hasit[dst] = 0, true
	queue := []int{dst}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		srcs := append([]int(nil), rev[at]...)
		sort.Ints(srcs)
		for _, src := range srcs {
			if t.hasit[src] || !g.Nodes[src].Alive {
				continue
			}
			t.dist[src], t.hasit[src] = t.dist[at]+1, true
			queue = append(queue, src)
		}
	}
	// Choose each source's egress edge among the distance-decreasing
	// candidates with the documented tie-break.
	for src := 0; src < n; src++ {
		if !t.hasit[src] || src == dst {
			continue
		}
		chosen := false
		for _, e := range g.adj[src] {
			if !t.hasit[e.To] || t.dist[e.To] != t.dist[src]-1 {
				continue
			}
			if !chosen {
				t.via[src], chosen = e, true
				continue
			}
			if e.To < t.via[src].To {
				t.via[src] = e
			}
		}
	}
	if g.hops == nil {
		g.hops = make(map[int]*hopTable)
	}
	g.hops[dst] = t
	return t
}

// Dist returns the wire-hop distance from one switch to another over
// alive elements, or ok=false when the destination is unreachable.
func (g *Graph) Dist(from, to int) (int, bool) {
	if from < 0 || from >= len(g.Nodes) {
		return 0, false
	}
	t := g.table(to)
	if !t.hasit[from] {
		return 0, false
	}
	return t.dist[from], true
}

// NextHop returns the edge a packet at `from` should take toward `to`,
// following the deterministic per-destination forwarding tree.
// ok=false means unreachable (or already there).
func (g *Graph) NextHop(from, to int) (Edge, bool) {
	if from == to {
		return Edge{}, false
	}
	t := g.table(to)
	if from < 0 || from >= len(g.Nodes) || !t.hasit[from] || t.dist[from] == 0 {
		return Edge{}, false
	}
	return t.via[from], true
}

// Route expands the forwarding path from one switch to another into
// the full switch sequence (inclusive of both ends) and the egress
// port taken at each hop. ok=false when unreachable.
func (g *Graph) Route(from, to int) (path []int, ports []asic.PortID, ok bool) {
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
		return nil, nil, false
	}
	path = append(path, from)
	for at := from; at != to; {
		e, ok := g.NextHop(at, to)
		if !ok {
			return nil, nil, false
		}
		ports = append(ports, e.Port)
		path = append(path, e.To)
		at = e.To
	}
	return path, ports, true
}

// LongestPathFrom returns the length in switches of the longest simple
// path starting at from over alive elements, or limit if that is smaller
// (limit <= 0: no limit). It bounds how many back-to-back segments a
// joint segmentation may use — the lex-path candidate's capacity probe.
// The search stops at the first path of limit switches: without that it
// walks every simple path, and the spine-and-skip wiring has Fibonacci
// many (64 switches never finished).
func LongestPathFrom(g *Graph, from, limit int) int {
	if from < 0 || from >= len(g.Nodes) || !g.Nodes[from].Alive {
		return 0
	}
	visited := make([]bool, len(g.Nodes))
	var dfs func(at, depth int) int
	dfs = func(at, depth int) int {
		visited[at] = true
		best := 1
		for _, e := range g.Edges(at) {
			if limit > 0 && depth+best > limit {
				break
			}
			if visited[e.To] || !g.Nodes[e.To].Alive {
				continue
			}
			if l := 1 + dfs(e.To, depth+1); l > best {
				best = l
			}
		}
		visited[at] = false
		return best
	}
	return dfs(from, 1)
}

// LexSmallestPath returns the lexicographically smallest simple path
// of exactly `length` switches starting at from over alive elements,
// with the egress port of each hop, or ok=false when none exists. This
// is the historical single-path selection rule, which the lex-path
// candidate lays its joint segmentation along.
func LexSmallestPath(g *Graph, from, length int) (path []int, ports []asic.PortID, ok bool) {
	if from < 0 || from >= len(g.Nodes) || !g.Nodes[from].Alive || length < 1 {
		return nil, nil, false
	}
	visited := make([]bool, len(g.Nodes))
	var dfs func(at int) bool
	dfs = func(at int) bool {
		path = append(path, at)
		visited[at] = true
		if len(path) == length {
			return true
		}
		for _, e := range g.Edges(at) {
			if visited[e.To] || !g.Nodes[e.To].Alive {
				continue
			}
			ports = append(ports, e.Port)
			if dfs(e.To) {
				return true
			}
			ports = ports[:len(ports)-1]
		}
		visited[at] = false
		path = path[:len(path)-1]
		return false
	}
	if dfs(from) {
		return path, ports, true
	}
	return nil, nil, false
}

// Demand is the per-NF stage demand in placement units: the NF's own
// MAU stage demand (default 1) plus the two framework wrapper stages,
// mirroring place.Problem's model.
func Demand(stageDemand map[string]int, name string) int {
	d := 1
	if stageDemand != nil && stageDemand[name] > 0 {
		d = stageDemand[name]
	}
	return d + 2
}
