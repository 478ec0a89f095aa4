package p4

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// depsRef is the pairwise dependency analysis Deps replaced, kept
// verbatim as the reference the differential tests compare against: it
// rebuilds both sites' sets for every pair.
func (cb *ControlBlock) depsRef() ([]Dep, error) {
	var apps []appliedTable
	if err := cb.linearize(cb.Body, nil, &apps); err != nil {
		return nil, err
	}
	var deps []Dep
	for i := 0; i < len(apps); i++ {
		for j := i + 1; j < len(apps); j++ {
			a, b := apps[i], apps[j]
			if a.table.Name == b.table.Name {
				continue
			}
			kind := classifyGuarded(a, b)
			if kind == DepNone {
				continue
			}
			deps = append(deps, Dep{From: a.table.Name, To: b.table.Name, Kind: kind})
		}
	}
	SortDeps(deps)
	return dedupDeps(deps), nil
}

// classifyGuarded is the strictest dependency from a to b, with b's
// guard-read fields counted among its reads.
func classifyGuarded(a, b appliedTable) DepKind {
	aw := refSet(a.table.WriteSet())
	reads := b.table.ReadSet()
	for _, g := range b.guards {
		reads = append(reads, g.Reads()...)
	}
	for _, r := range reads {
		if aw[r] {
			return DepMatch
		}
	}
	for _, r := range b.table.WriteSet() {
		if aw[r] {
			return DepAction
		}
	}
	// Control dependence: b is guarded and at least one of its guards
	// differs from a's guard prefix (b's execution depends on control
	// flow a participates in). A conservative but useful rule: any
	// guarded pair is successor-dependent.
	if len(b.guards) > 0 {
		return DepSuccessor
	}
	return DepNone
}

// DepsRef exposes the reference analysis to the external tests that
// run it over composed pipelet blocks (deps_scenario_test.go).
func DepsRef(cb *ControlBlock) ([]Dep, error) { return cb.depsRef() }

// randomBlock builds a control block whose shape exercises everything
// Deps distinguishes: a small field pool so read/write sets overlap,
// tables applied in several branches, guards nested up to three deep
// that read fields other tables write.
func randomBlock(rng *rand.Rand) *ControlBlock {
	fields := []FieldRef{
		"ipv4.src_addr", "ipv4.dst_addr", "ipv4.ttl", "tcp.src_port", "tcp.dst_port",
		"meta.next_nf", "meta.class_id", "meta.session_hash", "meta.out_port",
	}
	pick := func() FieldRef { return fields[rng.Intn(len(fields))] }
	cb := &ControlBlock{Name: "rnd"}
	for i, n := 0, 2+rng.Intn(7); i < n; i++ {
		t := &Table{Name: fmt.Sprintf("t%d", i)}
		for k, nk := 0, rng.Intn(3); k < nk; k++ {
			t.Keys = append(t.Keys, Key{Field: pick(), Kind: MatchExact, Bits: 8})
		}
		for a, na := 0, 1+rng.Intn(2); a < na; a++ {
			act := &Action{Name: fmt.Sprintf("a%d", a)}
			for o, no := 0, rng.Intn(3); o < no; o++ {
				switch rng.Intn(3) {
				case 0:
					act.Ops = append(act.Ops, Op{Kind: OpSetField, Dst: pick()})
				case 1:
					act.Ops = append(act.Ops, Op{Kind: OpCopyField, Dst: pick(), Srcs: []FieldRef{pick()}})
				default:
					act.Ops = append(act.Ops, Op{Kind: OpHash, Dst: pick(), Srcs: []FieldRef{pick(), pick()}})
				}
			}
			t.Actions = append(t.Actions, act)
		}
		cb.Tables = append(cb.Tables, t)
	}
	var body func(depth int) []Stmt
	body = func(depth int) []Stmt {
		var out []Stmt
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			if depth < 3 && rng.Intn(3) == 0 {
				cond := Cond{Kind: CondFieldEq, Field: pick(), Value: uint64(rng.Intn(4))}
				if rng.Intn(4) == 0 {
					cond = Cond{Kind: CondValid, Header: "tcp"}
				}
				st := IfStmt{Cond: cond, Then: body(depth + 1)}
				if rng.Intn(2) == 0 {
					st.Else = body(depth + 1)
				}
				out = append(out, st)
				continue
			}
			out = append(out, ApplyStmt{Table: cb.Tables[rng.Intn(len(cb.Tables))].Name})
		}
		return out
	}
	cb.Body = body(0)
	return cb
}

// TestDepsMatchesReferenceRandom: Deps ≡ depsRef on seeded random
// blocks, and the corpus really contains the shapes that matter.
func TestDepsMatchesReferenceRandom(t *testing.T) {
	kinds := map[DepKind]int{}
	shared := 0
	for seed := int64(1); seed <= 300; seed++ {
		cb := randomBlock(rand.New(rand.NewSource(seed)))
		want, werr := cb.depsRef()
		got, gerr := cb.Deps()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("seed %d: errors differ: ref %v, new %v", seed, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: deps differ\nref: %v\nnew: %v", seed, want, got)
		}
		for _, d := range got {
			kinds[d.Kind]++
		}
		order, err := cb.AppliedOrder()
		if err != nil {
			t.Fatal(err)
		}
		sites := map[string]int{}
		for _, tb := range order {
			if sites[tb.Name]++; sites[tb.Name] == 2 {
				shared++
			}
		}
	}
	for _, k := range []DepKind{DepMatch, DepAction, DepSuccessor} {
		if kinds[k] == 0 {
			t.Errorf("random corpus produced no %s dependency", k)
		}
	}
	if shared == 0 {
		t.Error("random corpus never applied a table at two sites")
	}
}

// TestDepsReferenceAgreesOnErrors: an unknown table and an unresolved
// call fail both analyses with the same message.
func TestDepsReferenceAgreesOnErrors(t *testing.T) {
	for _, cb := range []*ControlBlock{
		{Name: "x", Body: []Stmt{ApplyStmt{Table: "ghost"}}},
		{Name: "y", Body: []Stmt{CallStmt{Block: "other"}}},
	} {
		_, werr := cb.depsRef()
		_, gerr := cb.Deps()
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%s: ref error %v, new error %v", cb.Name, werr, gerr)
		}
	}
}
