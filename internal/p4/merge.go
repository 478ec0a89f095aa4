package p4

import (
	"fmt"
	"slices"
	"sort"
)

// GlobalIDTable maps (header_type, offset) vertices to stable global
// IDs, implementing the lookup table §3 introduces to make vertices of
// different per-NF parser DAGs comparable. The table is small because
// normal packets have few header types and each header has few
// possible offsets.
type GlobalIDTable struct {
	ids  map[Vertex]int
	next int
}

// NewGlobalIDTable returns an empty table.
func NewGlobalIDTable() *GlobalIDTable {
	return &GlobalIDTable{ids: make(map[Vertex]int)}
}

// ID returns the global ID for v, assigning the next free ID on first
// use. Accept vertices all share one ID.
func (t *GlobalIDTable) ID(v Vertex) int {
	if v.Type == AcceptType {
		v = Accept()
	}
	if id, ok := t.ids[v]; ok {
		return id
	}
	id := t.next
	t.next++
	t.ids[v] = id
	return id
}

// Lookup returns the ID for v without assigning, and whether it exists.
func (t *GlobalIDTable) Lookup(v Vertex) (int, bool) {
	if v.Type == AcceptType {
		v = Accept()
	}
	id, ok := t.ids[v]
	return id, ok
}

// Len returns the number of registered vertices.
func (t *GlobalIDTable) Len() int { return len(t.ids) }

// Entries returns (vertex, id) pairs sorted by ID, for reporting.
func (t *GlobalIDTable) Entries() []struct {
	Vertex Vertex
	ID     int
} {
	out := make([]struct {
		Vertex Vertex
		ID     int
	}, 0, len(t.ids))
	for v, id := range t.ids {
		out = append(out, struct {
			Vertex Vertex
			ID     int
		}{v, id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MergeConflict is one part of one input graph that MergeParsers left
// out of the generic parser.
type MergeConflict struct {
	// Fragment indexes the input graph the part came from; -1 stands for
	// the merged graph as a whole, which failed Validate.
	Fragment int
	// Edge is the refused transition; the zero Transition when the whole
	// graph was refused because it starts elsewhere than the first.
	Edge Transition
	// Owner indexes the earlier graph whose transition from Edge.From on
	// the same select value (or default) leads to OwnerTo instead: the
	// two NFs disagree about the packet format. It is -1 when Edge was
	// refused for another reason.
	Owner   int
	OwnerTo Vertex
	// Err says why the part was refused.
	Err error
}

// MergeError lists every conflict of one merge, in input order.
type MergeError struct {
	Conflicts []MergeConflict
}

func (e *MergeError) Error() string {
	msg := "p4: merging parsers: " + e.Conflicts[0].Err.Error()
	if n := len(e.Conflicts) - 1; n > 0 {
		msg += fmt.Sprintf(" (and %d more conflict(s))", n)
	}
	return msg
}

// MergeParsers merges the parser graphs of individual NFs into a single
// generic parser (§3 "Generic Parser"). Vertices are unified through
// the global ID table: two vertices are the same parse state only when
// their (header type, offset) tuples coincide. Transitions are
// unioned. Packets enter at the first graph's start vertex (Ethernet
// offset 0), and a graph rooted elsewhere is left out.
//
// A transition that conflicts with one already merged (the same vertex
// selecting the same value toward different headers: the NFs disagree
// about the packet format) or that does not advance the offset is left
// out, and the merge goes on. When anything was left out, or the
// merged graph does not validate, MergeParsers returns what did merge
// together with a *MergeError listing every conflict.
// A graph handed in again after it merged cleanly (a fragment several
// NFs share) is not merged again, but its decisions become the later
// index's, as a second merge would have made them.
func MergeParsers(table *GlobalIDTable, graphs ...*ParserGraph) (*ParserGraph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("p4: no parsers to merge")
	}
	start := graphs[0].Start
	merged := NewParserGraph(start)
	x := merged.index()
	// owners maps a select decision (a transition without its target) to
	// where it leads and the graph that last declared it.
	type owner struct {
		to       Vertex
		fragment int
	}
	owners := make(map[Transition]owner)
	var conflicts []MergeConflict
	var clean []*ParserGraph // graphs merged without conflict
	for i, g := range graphs {
		if g.Start != start {
			conflicts = append(conflicts, MergeConflict{Fragment: i, Owner: -1,
				Err: fmt.Errorf("parser start vertices differ: %s vs %s", start, g.Start)})
			continue
		}
		if slices.Contains(clean, g) {
			for _, e := range g.edges {
				owners[decision(e)] = owner{to: e.To, fragment: i}
			}
			continue
		}
		before := len(conflicts)
		for _, v := range g.Vertices() {
			table.ID(v)
			merged.AddVertex(v)
		}
		for _, e := range g.edges {
			d := decision(e)
			if err := merged.addEdge(e, x); err != nil {
				c := MergeConflict{Fragment: i, Edge: e, Owner: -1, Err: err}
				if o, ok := owners[d]; ok && o.to != e.To {
					c.Owner, c.OwnerTo = o.fragment, o.to
				}
				conflicts = append(conflicts, c)
				continue
			}
			owners[d] = owner{to: e.To, fragment: i}
		}
		if len(conflicts) == before {
			clean = append(clean, g)
		}
	}
	if len(conflicts) == 0 {
		if err := merged.Validate(); err != nil {
			conflicts = append(conflicts, MergeConflict{Fragment: -1, Owner: -1, Err: err})
		}
	}
	if len(conflicts) > 0 {
		return merged, &MergeError{Conflicts: conflicts}
	}
	return merged, nil
}

// decision is a transition without its target: the select decision it
// makes.
func decision(e Transition) Transition {
	e.To = Vertex{}
	return e
}

// Program is a complete data plane program: a parser graph plus an
// ordered list of control blocks.
type Program struct {
	Name   string
	Parser *ParserGraph
	Blocks []*ControlBlock
}

// Validate checks the parser and every control block.
func (p *Program) Validate() error {
	if p.Parser == nil {
		return fmt.Errorf("p4: program %s has no parser", p.Name)
	}
	if err := p.Parser.Validate(); err != nil {
		return fmt.Errorf("program %s: %w", p.Name, err)
	}
	seen := make(map[string]bool)
	for _, b := range p.Blocks {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("program %s: %w", p.Name, err)
		}
		if seen[b.Name] {
			return fmt.Errorf("p4: program %s declares control %q twice", p.Name, b.Name)
		}
		seen[b.Name] = true
	}
	return nil
}
