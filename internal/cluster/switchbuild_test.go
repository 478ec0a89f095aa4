package cluster

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// deepNF is an NF whose control block is a chain of dependent tables,
// each keyed on the field the one before writes, so compiler.MinStages
// reads the chain's length.
type deepNF struct {
	name  string
	block *p4.ControlBlock
}

func newDeepNF(name string, tables int) *deepNF {
	cb := &p4.ControlBlock{Name: name}
	for i := 0; i < tables; i++ {
		tbl := &p4.Table{
			Name: fmt.Sprintf("%s_t%d", name, i),
			Actions: []*p4.Action{{Name: "setf",
				Ops: []p4.Op{{Kind: p4.OpSetField, Dst: p4.FieldRef(fmt.Sprintf("meta.%s_f%d", name, i))}}}},
			Size: 1,
		}
		if i > 0 {
			tbl.Keys = []p4.Key{{Field: p4.FieldRef(fmt.Sprintf("meta.%s_f%d", name, i-1)), Kind: p4.MatchExact, Bits: 8}}
		}
		cb.Tables = append(cb.Tables, tbl)
		cb.Body = append(cb.Body, p4.ApplyStmt{Table: tbl.Name})
	}
	return &deepNF{name: name, block: cb}
}

func (d *deepNF) Name() string               { return d.name }
func (d *deepNF) Block() *p4.ControlBlock    { return d.block }
func (d *deepNF) Parser() *p4.ParserGraph    { return p4.SFCIPv4Parser() }
func (d *deepNF) Execute(hdr *packet.Parsed) {}

// A fabric switch's program goes through the staged build, stage
// allocation included. With StageDemand unset every NF counts one
// stage, so the per-switch anneal packs three 5-stage NFs into one
// 12-stage pipelet (their composed block needs 14). Composed directly,
// that program used to install; built, it fails DV001, and the round
// is refused with an FB006 finding that names it, leaving the installed
// state and the switch's build cache as they were. True stage demands
// then place it.
func TestFabricSwitchOverflowIsRefused(t *testing.T) {
	f, err := NewSpineFabric(asic.Wedge100B(), 2)
	if err != nil {
		t.Fatal(err)
	}
	nfs := nf.List{newDeepNF("a", 5), newDeepNF("b", 5), newDeepNF("c", 5)}
	chains := []route.Chain{{PathID: 1, NFs: []string{"a", "b", "c"}, Weight: 1}}
	fd, err := NewFabricDeployment(f, chains, nfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := fd.installed[0].Cache
	rec := NewReconciler(fd)

	rep, err := rec.Reconcile()
	if err == nil {
		t.Fatalf("an overflowing switch program was installed: %+v", rep)
	}
	fb := rep.Findings.ByRule(RuleFBConvergeFailed)
	if len(fb) != 1 || !strings.Contains(fb[0].Message, "DV001") {
		t.Fatalf("want one FB006 finding naming DV001, got %v", fb)
	}
	if len(fd.Routes) != 0 || fd.progSig[0] != "" || fd.installed[0].Res != nil || fd.installed[0].Cache != cache {
		t.Fatalf("a refused round changed the installed state: routes %v, sig %q, cache kept %v",
			fd.Routes, fd.progSig[0], fd.installed[0].Cache == cache)
	}

	fd.StageDemand = make(map[string]int)
	for _, f := range nfs {
		if fd.StageDemand[f.Name()], err = compiler.MinStages(f.Block()); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err = rec.Reconcile(); err != nil {
		t.Fatalf("true stage demands: %v\n%s", err, rep.Findings)
	}
	if len(rep.Changed) == 0 || fd.installed[0].Res == nil || fd.installed[0].Cache == cache {
		t.Fatalf("true stage demands installed nothing: %+v", rep)
	}
}

// route.Plan ≡ datapath on every fabric switch: for each chain and each
// switch on its route, the recirculations and resubmissions of that
// switch's build traversal equal the sum over that switch's visits in
// the chain's probe, on spine fabrics of 2–5 switches, healthy and with
// each non-entry switch killed in turn.
func TestFabricPlanMatchesDatapath(t *testing.T) {
	for n := 2; n <= 5; n++ {
		_, f, fd, rec := newSpineDeployment(t, n)
		check := func(state string) {
			t.Helper()
			if _, err := rec.Reconcile(); err != nil {
				t.Fatalf("%d switches, %s: %v", n, state, err)
			}
			for _, pr := range scenario.Probes() {
				cr, ok := fd.Routes[pr.PathID]
				if !ok {
					continue // blackholed
				}
				ft, err := f.Inject(0, pr.Port, pr.Packet())
				if err != nil || ft.Dropped || len(ft.Out) != 1 || len(ft.PerSwitch) != len(cr.Path) {
					t.Fatalf("%d switches, %s: %s probe over %v not delivered: %v %+v", n, state, pr.Name, cr.Path, err, ft)
				}
				for _, s := range cr.Path {
					var recircs, resubmits int
					for i, at := range cr.Path {
						if at == s {
							recircs += ft.PerSwitch[i].Recirculations
							resubmits += ft.PerSwitch[i].Resubmissions
						}
					}
					var plan *route.Traversal
					for i := range fd.installed[s].Res.Traversals {
						if tr := &fd.installed[s].Res.Traversals[i]; tr.Chain == pr.PathID {
							plan = tr
						}
					}
					if plan == nil || plan.Recirculations != recircs || plan.Resubmissions != resubmits {
						t.Errorf("%d switches, %s: %s chain on switch %d (route %v): plan %+v, datapath %d recirculations, %d resubmissions",
							n, state, pr.Name, s, cr.Path, plan, recircs, resubmits)
					}
				}
			}
		}
		check("healthy")
		for k := 1; k < n; k++ {
			if err := f.KillSwitch(k); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("switch %d dead", k))
			if err := f.ReviveSwitch(k); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A heal writes only what changed (§7): killing switch 1 moves its
// chains onto switch 2, but the entry switch keeps its NFs on the same
// pipelets, so its reprogram is a branching-entry diff that reloads no
// pipelet program.
func TestFabricHealWritesOnlyWhatChanged(t *testing.T) {
	_, f, fd, rec := newTestFabric(t)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	local := fd.installed[0].Res.Placement.NF
	was := fd.Controllers[0].Stats()
	if err := f.KillSwitch(1); err != nil {
		t.Fatal(err)
	}
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Replaced) == 0 || !slices.Contains(rep.Changed, 0) {
		t.Fatalf("the heal moved no chain or left the entry switch alone: replaced %v, changed %v", rep.Replaced, rep.Changed)
	}
	if now := fd.installed[0].Res.Placement.NF; !maps.Equal(local, now) {
		t.Fatalf("the entry switch's NFs moved: %v -> %v", local, now)
	}
	now := fd.Controllers[0].Stats()
	if programs, entries := now.ProgramWrites-was.ProgramWrites, now.EntryWrites-was.EntryWrites; programs != 0 || entries == 0 {
		t.Errorf("entry switch heal wrote %d pipelet programs and %d branching entries, want 0 and some", programs, entries)
	}
}
