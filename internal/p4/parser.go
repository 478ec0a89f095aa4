package p4

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Vertex is one node of a parser graph: a header type at a particular
// location offset in the packet. Per §3 of the paper, two vertices are
// equivalent only when both the header type and the offset coincide —
// the same header type appearing at different offsets (e.g. inner vs
// outer IPv4) yields distinct vertices.
type Vertex struct {
	Type   string // header type name
	Offset int    // byte offset from the start of the packet
}

// String renders the vertex as "type@offset".
func (v Vertex) String() string { return fmt.Sprintf("%s@%d", v.Type, v.Offset) }

// Transition is a parser edge: from one vertex, on a select-field
// value, proceed to the next vertex. A Default transition fires when
// no valued transition matches.
type Transition struct {
	From    Vertex
	Select  FieldRef // field of From's header examined (empty for Default)
	Value   uint64
	Default bool
	To      Vertex
}

// AcceptType is the pseudo header type of the accept vertex.
const AcceptType = "accept"

// Accept returns the accepting vertex at a given offset. All accept
// vertices are equivalent regardless of offset; offset -1 is canonical.
func Accept() Vertex { return Vertex{Type: AcceptType, Offset: -1} }

// ParserGraph is a parse graph: a DAG of (header type, offset)
// vertices. The zero value is empty; use NewParserGraph.
type ParserGraph struct {
	Start    Vertex
	vertices map[Vertex]bool
	edges    []Transition
	// frozen marks a graph SharedParser built: one value per process,
	// shared by every NF that declares it, so it must not change. body is
	// its parser text below the declaration line, emitted once when it
	// was frozen (see EmitParser).
	frozen bool
	body   string
}

// SharedParser returns an accessor for a static parser fragment: the
// first call builds it, validates it and freezes it, and every call
// returns that one graph. A parse graph is declared once, not rebuilt
// per use; a caller that needs to extend a shared graph Clones it.
func SharedParser(build func() *ParserGraph) func() *ParserGraph {
	return sync.OnceValue(func() *ParserGraph {
		g := build()
		if err := g.Validate(); err != nil {
			panic(err) // static graph: a bug in its declaration
		}
		g.frozen = true
		g.body = emitParserBody(g)
		return g
	})
}

// Frozen reports whether g is a shared graph SharedParser built, which
// never changes.
func (g *ParserGraph) Frozen() bool { return g.frozen }

// mustBeMutable panics when g is a shared, frozen graph.
func (g *ParserGraph) mustBeMutable() {
	if g.frozen {
		panic(fmt.Sprintf("p4: parser graph rooted at %s is shared and frozen; Clone it before changing it", g.Start))
	}
}

// NewParserGraph creates a graph rooted at start.
func NewParserGraph(start Vertex) *ParserGraph {
	g := &ParserGraph{Start: start, vertices: map[Vertex]bool{start: true, Accept(): true}}
	return g
}

// AddVertex inserts a vertex (idempotent). It panics on a frozen graph.
func (g *ParserGraph) AddVertex(v Vertex) {
	g.mustBeMutable()
	g.vertices[v] = true
}

// HasVertex reports whether the graph contains v.
func (g *ParserGraph) HasVertex(v Vertex) bool { return g.vertices[v] }

// Vertices returns the vertex set in deterministic order: by offset,
// then by header type.
func (g *ParserGraph) Vertices() []Vertex {
	out := make([]Vertex, 0, len(g.vertices))
	for v := range g.vertices {
		out = append(out, v)
	}
	slices.SortFunc(out, compareVertices)
	return out
}

// compareVertices orders vertices as Vertices lists them.
func compareVertices(a, b Vertex) int {
	if c := cmp.Compare(a.Offset, b.Offset); c != 0 {
		return c
	}
	return cmp.Compare(a.Type, b.Type)
}

// Edges returns the transitions in insertion order.
func (g *ParserGraph) Edges() []Transition { return g.edges }

// AddEdge inserts a transition, adding endpoints as needed. It rejects
// duplicate select values from the same vertex that lead to different
// targets, and transitions that do not advance the offset (which would
// create a cycle). It panics on a frozen graph.
func (g *ParserGraph) AddEdge(t Transition) error { return g.addEdge(t, g.index()) }

// addEdge is AddEdge given an index of g's edges, which it extends. At
// most one transition from t.From can equal or contradict t (two that
// did would contradict each other), so the order the index lists them
// in cannot change the outcome.
func (g *ParserGraph) addEdge(t Transition, x *edgeIndex) error {
	g.mustBeMutable()
	if t.To.Type != AcceptType && t.To.Offset <= t.From.Offset {
		return fmt.Errorf("p4: parser edge %s -> %s does not advance offset", t.From, t.To)
	}
	for i := x.last[t.From]; i > 0; i = x.prev[i-1] {
		e := g.edges[i-1]
		if e.Default && t.Default && e.To != t.To {
			return fmt.Errorf("p4: conflicting default transitions from %s: %s vs %s", t.From, e.To, t.To)
		}
		if !e.Default && !t.Default && e.Select == t.Select && e.Value == t.Value && e.To != t.To {
			return fmt.Errorf("p4: conflicting transitions from %s on %s=%#x: %s vs %s",
				t.From, t.Select, t.Value, e.To, t.To)
		}
		if e == t {
			return nil // exact duplicate: idempotent
		}
	}
	g.AddVertex(t.From)
	g.AddVertex(t.To)
	g.edges = append(g.edges, t)
	x.add(t.From)
	return nil
}

// edgeIndex chains a graph's edges by source vertex, newest first:
// last[v] is 1 + the position of the last edge added from v, and
// prev[i] 1 + the position of the edge added before edge i from the
// same vertex (0: none). One pass over the graph builds it and drops
// it; the graph stores no index.
type edgeIndex struct {
	last map[Vertex]int
	prev []int
}

func (g *ParserGraph) index() *edgeIndex {
	x := &edgeIndex{last: make(map[Vertex]int, len(g.vertices)), prev: make([]int, 0, len(g.edges))}
	for _, e := range g.edges {
		x.add(e.From)
	}
	return x
}

// add indexes the edge after the last one indexed, which leaves from.
func (x *edgeIndex) add(from Vertex) {
	x.prev = append(x.prev, x.last[from])
	x.last[from] = len(x.prev)
}

// MustEdge is AddEdge that panics on error; used for static graphs.
func (g *ParserGraph) MustEdge(t Transition) {
	if err := g.AddEdge(t); err != nil {
		panic(err)
	}
}

// Reachable returns the set of vertices reachable from Start.
func (g *ParserGraph) Reachable() map[Vertex]bool { return g.reachable(g.index()) }

func (g *ParserGraph) reachable(x *edgeIndex) map[Vertex]bool {
	seen := map[Vertex]bool{g.Start: true}
	stack := []Vertex{g.Start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := x.last[v]; i > 0; i = x.prev[i-1] {
			if to := g.edges[i-1].To; !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}

// Validate checks that the graph is rooted, acyclic (guaranteed by the
// offset-advance rule but re-verified), and that every non-accept
// vertex reaches accept. Of several vertices that cannot, it names the
// first in Vertices order.
func (g *ParserGraph) Validate() error {
	if !g.vertices[g.Start] {
		return fmt.Errorf("p4: parser start vertex %s not in graph", g.Start)
	}
	x := g.index()
	reach := g.reachable(x)
	exits := make(map[Vertex]bool, len(reach))
	var dead Vertex
	found := false
	for v := range reach {
		if g.reachesAccept(v, x, exits) || found && compareVertices(dead, v) < 0 {
			continue
		}
		dead, found = v, true
	}
	if found {
		return fmt.Errorf("p4: parser vertex %s cannot reach accept", dead)
	}
	return nil
}

// reachesAccept reports whether a path leads from v to accept. memo
// records the answer for every vertex the search settles, so one pass
// over the graph answers for all of its vertices.
func (g *ParserGraph) reachesAccept(v Vertex, x *edgeIndex, memo map[Vertex]bool) bool {
	if v.Type == AcceptType {
		return true
	}
	if r, ok := memo[v]; ok {
		return r
	}
	memo[v] = false // while v is being searched (a cycle leads nowhere)
	for i := x.last[v]; i > 0; i = x.prev[i-1] {
		if g.reachesAccept(g.edges[i-1].To, x, memo) {
			memo[v] = true
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph; the copy is never frozen.
func (g *ParserGraph) Clone() *ParserGraph {
	c := NewParserGraph(g.Start)
	for v := range g.vertices {
		c.vertices[v] = true
	}
	c.edges = append([]Transition(nil), g.edges...)
	return c
}

// ParseStates returns the number of parse states (non-accept vertices),
// a rough measure of parser TCAM usage.
func (g *ParserGraph) ParseStates() int {
	n := 0
	for v := range g.vertices {
		if v.Type != AcceptType {
			n++
		}
	}
	return n
}
