package p4

import (
	"fmt"
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

// MergeParsers merges the parser graphs of individual NFs into a single
// generic parser (§3 "Generic Parser"). Vertices are unified through
// the global ID table: two vertices are the same parse state only when
// their (header type, offset) tuples coincide. Transitions are
// unioned; a conflict (the same vertex selecting the same value toward
// different headers) is an error because the NFs disagree about the
// packet format.
//
// All input graphs must share the same start vertex (packets enter at
// Ethernet offset 0).
func MergeParsers(table *GlobalIDTable, graphs ...*ParserGraph) (*ParserGraph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("p4: no parsers to merge")
	}
	start := graphs[0].Start
	for _, g := range graphs[1:] {
		if g.Start != start {
			return nil, fmt.Errorf("p4: parser start vertices differ: %s vs %s", start, g.Start)
		}
	}
	merged := NewParserGraph(start)
	for _, g := range graphs {
		for _, v := range g.Vertices() {
			table.ID(v)
			merged.AddVertex(v)
		}
		for _, e := range g.Edges() {
			if err := merged.AddEdge(e); err != nil {
				return nil, fmt.Errorf("p4: merging parsers: %w", err)
			}
		}
	}
	if err := merged.Validate(); err != nil {
		return nil, fmt.Errorf("p4: merged parser invalid: %w", err)
	}
	return merged, nil
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
