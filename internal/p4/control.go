package p4

import (
	"fmt"
	"slices"
	"sync"
)

// CondKind enumerates gateway condition forms.
type CondKind uint8

// Condition kinds.
const (
	CondFieldEq  CondKind = iota // field == value
	CondFieldNeq                 // field != value
	CondValid                    // header is valid
)

// Cond is a gateway condition guarding part of a control block's apply
// body. Gateways consume dedicated MAU resources on RMT hardware.
type Cond struct {
	Kind   CondKind
	Field  FieldRef // for CondFieldEq / CondFieldNeq
	Value  uint64
	Header string // for CondValid
}

// Reads returns the fields the condition examines.
func (c Cond) Reads() []FieldRef {
	switch c.Kind {
	case CondFieldEq, CondFieldNeq:
		return []FieldRef{c.Field}
	default:
		return nil
	}
}

// Stmt is one statement of a control block's apply body.
type Stmt interface{ isStmt() }

// ApplyStmt applies a match-action table.
type ApplyStmt struct{ Table string }

// IfStmt branches on a gateway condition.
type IfStmt struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

// CallStmt invokes another control block by name (P4-16 modular
// control block invocation, the mechanism §2 highlights).
type CallStmt struct{ Block string }

func (ApplyStmt) isStmt() {}
func (IfStmt) isStmt()    {}
func (CallStmt) isStmt()  {}

// ControlBlock is a modular NF control block: a set of tables plus an
// apply body, mirroring Dejavu's
// `control XX_control(inout all_headers_t hdr)` interface (§3.1).
type ControlBlock struct {
	Name   string
	Tables []*Table
	Body   []Stmt
	// frozen marks a block SharedControl built, which nothing may
	// change; text is its EmitControl text, emitted when it was frozen.
	frozen bool
	text   string
}

// SharedControl returns an accessor for a static NF control block, the
// twin of SharedParser: the first call builds, validates and freezes
// it, and every call returns that one block, so what a build derives
// from it alone (its text, its stage demand) is derived once per
// process. A caller that needs to change a shared block Clones it.
func SharedControl(build func() *ControlBlock) func() *ControlBlock {
	return sync.OnceValue(func() *ControlBlock {
		cb := build()
		if err := cb.Validate(); err != nil {
			panic(err) // static block: a bug in its declaration
		}
		cb.text = emitControl(cb)
		cb.frozen = true
		return cb
	})
}

// Frozen reports whether cb is a shared block SharedControl built,
// which never changes.
func (cb *ControlBlock) Frozen() bool { return cb.frozen }

// Clone returns a deep copy of the block; the copy is never frozen.
func (cb *ControlBlock) Clone() *ControlBlock {
	c := &ControlBlock{Name: cb.Name, Tables: make([]*Table, len(cb.Tables)), Body: cloneStmts(cb.Body)}
	for i, t := range cb.Tables {
		ct := *t
		ct.Keys = slices.Clone(t.Keys)
		ct.Actions = make([]*Action, len(t.Actions))
		for j, a := range t.Actions {
			ca := *a
			ca.Params = slices.Clone(a.Params)
			ca.Ops = slices.Clone(a.Ops)
			for k := range ca.Ops {
				ca.Ops[k].Srcs = slices.Clone(ca.Ops[k].Srcs)
			}
			ct.Actions[j] = &ca
		}
		c.Tables[i] = &ct
	}
	return c
}

// cloneStmts deep-copies an apply body.
func cloneStmts(body []Stmt) []Stmt {
	out := slices.Clone(body)
	for i, s := range out {
		if st, ok := s.(IfStmt); ok {
			st.Then, st.Else = cloneStmts(st.Then), cloneStmts(st.Else)
			out[i] = st
		}
	}
	return out
}

// TableByName returns the named table, or nil.
func (cb *ControlBlock) TableByName(name string) *Table {
	for _, t := range cb.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// appliedTable is a table application in linearized program order,
// with the accumulated guard conditions it executes under.
type appliedTable struct {
	table  *Table
	guards []Cond
}

// linearize flattens the body into program order, accumulating guards.
// Call statements are not resolved here (the composer inlines them).
func (cb *ControlBlock) linearize(body []Stmt, guards []Cond, out *[]appliedTable) error {
	for _, s := range body {
		switch st := s.(type) {
		case ApplyStmt:
			t := cb.TableByName(st.Table)
			if t == nil {
				return fmt.Errorf("p4: control %s applies unknown table %q", cb.Name, st.Table)
			}
			*out = append(*out, appliedTable{table: t, guards: append([]Cond(nil), guards...)})
		case IfStmt:
			if err := cb.linearize(st.Then, append(guards, st.Cond), out); err != nil {
				return err
			}
			if err := cb.linearize(st.Else, append(guards, st.Cond), out); err != nil {
				return err
			}
		case CallStmt:
			return fmt.Errorf("p4: control %s contains unresolved call to %q (inline before analysis)", cb.Name, st.Block)
		default:
			return fmt.Errorf("p4: control %s contains unknown statement %T", cb.Name, s)
		}
	}
	return nil
}

// AppliedOrder returns the tables in linearized apply order. A table
// applied in several branches appears once per application site.
func (cb *ControlBlock) AppliedOrder() ([]*Table, error) {
	var apps []appliedTable
	if err := cb.linearize(cb.Body, nil, &apps); err != nil {
		return nil, err
	}
	out := make([]*Table, len(apps))
	for i, a := range apps {
		out[i] = a.table
	}
	return out, nil
}

// GatewayCount returns the number of distinct gateway conditions in the
// body, which sizes gateway resource usage.
func (cb *ControlBlock) GatewayCount() int {
	seen := make(map[Cond]bool)
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, s := range body {
			if st, ok := s.(IfStmt); ok {
				seen[st.Cond] = true
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(cb.Body)
	return len(seen)
}

// Deps computes the table dependency graph of the control block in
// linearized order. Guard conditions contribute their read fields to
// the guarded table's read set (a gateway reads its inputs at stage
// entry, so a write to a guard field forces a later stage, i.e. a
// match dependency). Pure control nesting without data overlap yields
// successor dependencies, which permit same-stage placement through
// predication.
//
// Each application site's read and write sets are built once; the
// pairwise pass only tests membership.
func (cb *ControlBlock) Deps() ([]Dep, error) {
	var apps []appliedTable
	if err := cb.linearize(cb.Body, nil, &apps); err != nil {
		return nil, err
	}
	sites := make([]depSite, len(apps))
	for i, a := range apps {
		sites[i] = newDepSite(a)
	}
	var deps []Dep
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			if a.name == b.name {
				continue
			}
			kind := a.classify(b)
			if kind == DepNone {
				continue
			}
			deps = append(deps, Dep{From: a.name, To: b.name, Kind: kind})
		}
	}
	SortDeps(deps)
	return dedupDeps(deps), nil
}

// depSite is one application site as the dependency analysis sees it.
type depSite struct {
	name    string
	reads   []FieldRef // table reads plus the reads of every guard above it
	writes  []FieldRef
	written map[FieldRef]bool // writes, for membership tests
	guarded bool
}

func newDepSite(a appliedTable) depSite {
	reads := a.table.ReadSet()
	for _, g := range a.guards {
		reads = append(reads, g.Reads()...)
	}
	writes := a.table.WriteSet()
	return depSite{
		name:    a.table.Name,
		reads:   reads,
		writes:  writes,
		written: refSet(writes),
		guarded: len(a.guards) > 0,
	}
}

// classify returns the strictest dependency from the earlier site a to
// the later site b.
func (a depSite) classify(b depSite) DepKind {
	for _, r := range b.reads {
		if a.written[r] {
			return DepMatch
		}
	}
	for _, w := range b.writes {
		if a.written[w] {
			return DepAction
		}
	}
	// Control dependence: b is guarded and at least one of its guards
	// differs from a's guard prefix (b's execution depends on control
	// flow a participates in). A conservative but useful rule: any
	// guarded pair is successor-dependent.
	if b.guarded {
		return DepSuccessor
	}
	return DepNone
}

func dedupDeps(deps []Dep) []Dep {
	out := deps[:0]
	var last Dep
	for i, d := range deps {
		if i > 0 && d.From == last.From && d.To == last.To {
			continue // keep strictest (deps sorted by kind ascending = strictest first)
		}
		out = append(out, d)
		last = d
	}
	return out
}

// Validate checks the block's tables and body.
func (cb *ControlBlock) Validate() error {
	if cb.Name == "" {
		return fmt.Errorf("p4: control block with empty name")
	}
	seen := make(map[string]bool, len(cb.Tables))
	for _, t := range cb.Tables {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("control %s: %w", cb.Name, err)
		}
		if seen[t.Name] {
			return fmt.Errorf("p4: control %s declares table %q twice", cb.Name, t.Name)
		}
		seen[t.Name] = true
	}
	if _, err := cb.AppliedOrder(); err != nil {
		return err
	}
	return nil
}
