package cluster

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
	"dejavu/internal/place"
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

// deepDeployment deploys one chain over deepNFs of the given table
// counts, in order, on an n-switch spine under a declared stage demand.
func deepDeployment(t *testing.T, switches int, tables []int, demand map[string]int) *FabricDeployment {
	t.Helper()
	f, err := NewSpineFabric(asic.Wedge100B(), switches)
	if err != nil {
		t.Fatal(err)
	}
	var nfs nf.List
	chain := route.Chain{PathID: 1, Weight: 1}
	for i, n := range tables {
		name := string(rune('a' + i))
		nfs = append(nfs, newDeepNF(name, n))
		chain.NFs = append(chain.NFs, name)
	}
	fd, err := NewFabricDeployment(f, []route.Chain{chain}, nfs, demand)
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

// A fabric switch's program goes through the staged build, stage
// allocation included. Three 5-stage NFs declared at one stage each fit
// one 12-stage pipelet as far as the per-switch anneal can tell, but
// their composed block needs 14: the build fails DV001, and the round is
// refused with an FB006 finding that names it. A refused build commits
// nothing: on the 7-NF chain the entry switch's build (four NFs at ten
// stages, one per pipelet) succeeds and switch 1's fails, and no switch
// is committed, no installed build or cache moves, and no route is
// adopted. Left undeclared, each NF is planned at its compiler.MinStages
// and the chain installs.
func TestFabricSwitchOverflowIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables []int
		demand map[string]int
		// refusal names the refused build; empty: the chain installs.
		refusal string
	}{
		{"understated", []int{5, 5, 5}, map[string]int{"a": 1, "b": 1, "c": 1}, "switch 0 build"},
		{"understated on switch 1", []int{1, 1, 1, 1, 5, 5, 5},
			map[string]int{"a": 10, "b": 10, "c": 10, "d": 10, "e": 1, "f": 1, "g": 1}, "switch 1 build"},
		{"undeclared", []int{5, 5, 5}, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd := deepDeployment(t, 2, tc.tables, tc.demand)
			caches := make([]*pipeline.Cache, len(fd.installed))
			for s := range fd.installed {
				caches[s] = fd.installed[s].Cache
			}
			rep, err := NewReconciler(fd).Reconcile()
			if tc.refusal == "" {
				if err != nil || len(rep.Changed) == 0 || fd.installed[0].Res == nil || fd.installed[0].Cache == caches[0] {
					t.Fatalf("nothing installed: %v, %+v", err, rep)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.refusal) {
				t.Fatalf("reconcile: %v, want the %s refused: %+v", err, tc.refusal, rep)
			}
			fb := rep.Findings.ByRule(RuleFBConvergeFailed)
			if len(fb) != 1 || !strings.Contains(fb[0].Message, "DV001") {
				t.Fatalf("want one FB006 finding naming DV001, got %v", fb)
			}
			if len(rep.Changed) != 0 || len(fd.Routes) != 0 {
				t.Errorf("a refused round changed %v and adopted routes %v", rep.Changed, fd.Routes)
			}
			for s := range fd.installed {
				if commits := fd.Controllers[s].Stats().ProgramCommits; commits != 0 || fd.installed[s].Res != nil || fd.installed[s].Cache != caches[s] {
					t.Errorf("switch %d: %d program commits, installed build %v, cache kept %v",
						s, commits, fd.installed[s].Res != nil, fd.installed[s].Cache == caches[s])
				}
			}
		})
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

// route.Plan ≡ datapath on the entry switch's own placement problem,
// drawn at random in the shape of placePipelets' call: the sub-chains a
// switch hosts (each chain's runs of NFs homed there, the classifier
// always among them, plus chains that never meet the classifier), each
// NF at its compiler.MinStages or at the fabric tests' 8 stages, entry
// pipeline 0, annealed 4 000 iterations from seed s+1. Each result is
// built as the entry switch's program — the chain set whole, the NFs
// homed elsewhere remote behind wire port 10 — and every scenario probe
// whose chain is installed enters on scenario.PortClient. It must leave
// where its chain does (its probe's exit, or the wire when NFs remain
// remote) with the recirculations and resubmissions its traversal plans.
func TestPlanMatchesDatapathOnAnnealedSwitches(t *testing.T) {
	problems := 200
	if testing.Short() {
		problems = 50
	}
	s := scenario.MustNew()
	ftuple, _ := scenario.ClientTCP(443).FiveTuple()
	backend, err := s.LB.SelectBackend(scenario.VIP, ftuple.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LB.InstallSession(ftuple.Hash(), backend); err != nil {
		t.Fatal(err)
	}
	const wire asic.PortID = 10
	others := []string{"fw", "vgw", "lb", "router"}
	built := 0
	for i := 0; i < problems; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		demand := make(map[string]int)
		for _, f := range s.NFs {
			d, err := compiler.MinStages(f.Block())
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				d = 8
			}
			demand[f.Name()] = d
		}
		local := []string{"classifier"}
		for _, k := range rng.Perm(len(others))[:rng.Intn(len(others))] {
			local = append(local, others[k])
		}
		var chains []route.Chain
		for _, c := range s.Chains {
			if rng.Intn(3) != 0 {
				chains = append(chains, c)
			}
		}
		for j := rng.Intn(3); j > 0; j-- {
			c := route.Chain{PathID: uint16(50 + j), Weight: 0.1}
			for _, n := range others {
				if rng.Intn(2) == 0 {
					c.NFs = append(c.NFs, n)
				}
			}
			if len(c.NFs) > 0 {
				chains = append(chains, c)
			}
		}
		var subs []route.Chain
		for _, c := range chains {
			w := float64(1+rng.Intn(10)) / 10
			for from := 0; from < len(c.NFs); {
				to := from
				for to < len(c.NFs) && slices.Contains(local, c.NFs[to]) {
					to++
				}
				if to > from {
					subs = append(subs, route.Chain{PathID: uint16(len(subs) + 1), NFs: c.NFs[from:to], Weight: w})
				}
				from = to + 1
			}
		}
		if len(subs) == 0 {
			continue
		}
		prob := pipeline.Problem(pipeline.Inputs{Prof: s.Prof, Chains: subs, Enter: 0}, demand)
		res, err := place.Anneal(prob, place.AnnealOpts{Seed: int64(rng.Intn(4) + 1), Iterations: 4000})
		if err != nil {
			continue // the plan fails; nothing deploys
		}
		placement := route.NewPlacement()
		for _, f := range s.NFs {
			if at, ok := res.Placement.Of(f.Name()); ok {
				placement.Assign(f.Name(), at)
			} else {
				placement.AssignRemote(f.Name(), wire)
			}
		}
		b, err := pipeline.Build(pipeline.Inputs{Prof: s.Prof, Chains: chains, NFs: s.NFs, Enter: 0, Placement: placement}, nil)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		sw := asic.New(s.Prof)
		if err := b.Dep.InstallOn(sw); err != nil {
			t.Fatal(err)
		}
		built++
		for _, pr := range scenario.Probes() {
			k := slices.IndexFunc(chains, func(c route.Chain) bool { return c.PathID == pr.PathID })
			if k < 0 {
				continue
			}
			// The probe's visit ends where the chain first goes remote.
			visit := chains[k]
			if r := slices.IndexFunc(visit.NFs, placement.IsRemote); r >= 0 {
				visit.NFs = visit.NFs[:r+1]
			}
			plan, err := route.Plan(visit, placement, 0)
			if err != nil {
				t.Fatalf("problem %d: %v", i, err)
			}
			tr, err := sw.Inject(scenario.PortClient, pr.Packet())
			if err != nil {
				t.Fatal(err)
			}
			delivered := pr.Verify(tr.Out)
			if placement.IsRemote(visit.NFs[len(visit.NFs)-1]) {
				delivered = nil
				if len(tr.Out) != 1 || tr.Out[0].Port != wire {
					delivered = fmt.Errorf("want one packet out on wire port %d", wire)
				}
			}
			if delivered != nil || tr.Recirculations != plan.Recirculations || tr.Resubmissions != plan.Resubmissions {
				t.Errorf("problem %d, %s probe, placement %v: %v; datapath %d recirculations, %d resubmissions (%s, %q), plan %d, %d (%s)",
					i, pr.Name, placement.NF, delivered, tr.Recirculations, tr.Resubmissions, tr.Path(), tr.DropReason,
					plan.Recirculations, plan.Resubmissions, plan.Path())
			}
		}
	}
	if built < problems/2 {
		t.Errorf("only %d of %d problems built", built, problems)
	}
}
