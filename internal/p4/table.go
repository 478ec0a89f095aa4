package p4

import (
	"fmt"
	"sort"
)

// Table is a match-action table declaration.
type Table struct {
	Name          string
	Keys          []Key
	Actions       []*Action
	DefaultAction string
	Size          int // requested number of entries

	// Framework marks tables inserted by Dejavu itself (branching,
	// check_nextNF, check_sfcFlags) rather than by an NF author; they
	// are accounted separately in the Table-1 resource report.
	Framework bool
}

// KeyBits returns the total match key width in bits, resolving widths
// from the standard header registry when Key.Bits is zero.
func (t *Table) KeyBits() int {
	reg := StandardHeaderTypes()
	total := 0
	for _, k := range t.Keys {
		bits := k.Bits
		if bits == 0 {
			hdr, fld := k.Field.Split()
			if ht := reg[hdr]; ht != nil {
				bits = ht.FieldBits(fld)
			}
		}
		total += bits
	}
	return total
}

// NeedsTCAM reports whether any key component requires ternary-capable
// memory (LPM, ternary or range matches).
func (t *Table) NeedsTCAM() bool {
	for _, k := range t.Keys {
		if k.Kind != MatchExact {
			return true
		}
	}
	return false
}

// ActionByName returns the named action, or nil.
func (t *Table) ActionByName(name string) *Action {
	for _, a := range t.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// MatchSet returns the fields the table matches on.
func (t *Table) MatchSet() []FieldRef {
	refs := make([]FieldRef, 0, len(t.Keys))
	for _, k := range t.Keys {
		refs = append(refs, k.Field)
	}
	return dedupRefs(refs)
}

// ReadSet returns all fields read by the table: match keys plus action
// source operands.
func (t *Table) ReadSet() []FieldRef {
	refs := t.MatchSet()
	for _, a := range t.Actions {
		refs = append(refs, a.ReadSet()...)
	}
	return dedupRefs(refs)
}

// WriteSet returns all fields any of the table's actions may write.
func (t *Table) WriteSet() []FieldRef {
	var refs []FieldRef
	for _, a := range t.Actions {
		refs = append(refs, a.WriteSet()...)
	}
	return dedupRefs(refs)
}

// MaxActionOps returns the largest number of primitive ops across the
// table's actions; this sizes the VLIW instruction usage.
func (t *Table) MaxActionOps() int {
	maxOps := 0
	for _, a := range t.Actions {
		if len(a.Ops) > maxOps {
			maxOps = len(a.Ops)
		}
	}
	return maxOps
}

// Validate checks structural invariants: a nonempty name, at least one
// action, a resolvable default action, and keys with known widths.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("p4: table with empty name")
	}
	if len(t.Actions) == 0 {
		return fmt.Errorf("p4: table %s has no actions", t.Name)
	}
	if t.DefaultAction != "" && t.ActionByName(t.DefaultAction) == nil {
		return fmt.Errorf("p4: table %s default action %q not declared", t.Name, t.DefaultAction)
	}
	names := make(map[string]bool, len(t.Actions))
	for _, a := range t.Actions {
		if names[a.Name] {
			return fmt.Errorf("p4: table %s declares action %q twice", t.Name, a.Name)
		}
		names[a.Name] = true
	}
	reg := StandardHeaderTypes()
	for _, k := range t.Keys {
		if k.Bits != 0 {
			continue
		}
		hdr, fld := k.Field.Split()
		ht := reg[hdr]
		if ht == nil {
			return fmt.Errorf("p4: table %s key %s references unknown header %q", t.Name, k.Field, hdr)
		}
		if !ht.HasField(fld) {
			return fmt.Errorf("p4: table %s key %s references unknown field %q of header %q", t.Name, k.Field, fld, hdr)
		}
	}
	return nil
}

// DepKind classifies a dependency between two tables, following the
// taxonomy of Jose et al. (NSDI '15) cited as [23] by the paper.
type DepKind uint8

// Dependency kinds, ordered by decreasing strictness.
const (
	// DepMatch: a later table matches on a field an earlier table's
	// action may write. The tables must sit in strictly separate
	// stages.
	DepMatch DepKind = iota
	// DepAction: both tables' actions write the same field. The tables
	// must be ordered, requiring separate stages on the MAU model.
	DepAction
	// DepSuccessor: execution of the later table is predicated on the
	// earlier table's result (control-flow only). The tables may share
	// a stage using predication.
	DepSuccessor
	// DepNone: independent tables; free placement.
	DepNone
)

// String names the dependency kind.
func (k DepKind) String() string {
	switch k {
	case DepMatch:
		return "match"
	case DepAction:
		return "action"
	case DepSuccessor:
		return "successor"
	case DepNone:
		return "none"
	default:
		return fmt.Sprintf("DepKind(%d)", uint8(k))
	}
}

func refSet(refs []FieldRef) map[FieldRef]bool {
	m := make(map[FieldRef]bool, len(refs))
	for _, r := range refs {
		m[r] = true
	}
	return m
}

// Dep is one edge of a control block's table dependency graph.
type Dep struct {
	From, To string // table names, From precedes To in program order
	Kind     DepKind
}

// SortDeps orders dependencies deterministically for stable output.
func SortDeps(deps []Dep) {
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].From != deps[j].From {
			return deps[i].From < deps[j].From
		}
		if deps[i].To != deps[j].To {
			return deps[i].To < deps[j].To
		}
		return deps[i].Kind < deps[j].Kind
	})
}
