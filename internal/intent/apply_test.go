package intent

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/config"
	"dejavu/internal/core"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// applyDoc applies doc and fails the test on error.
func applyDoc(t *testing.T, a *Applier, doc *Document) *Report {
	t.Helper()
	rep, err := a.Apply(doc, Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return rep
}

// counter reads an unlabelled family from a control-plane set, 0 when
// the set does not render it.
func counter(c *telemetry.Control, name string) float64 {
	for _, f := range c.Gather() {
		if f.Name == name && len(f.Samples) == 1 {
			return f.Samples[0].Value
		}
	}
	return 0
}

// assertProvedNoOp checks the full no-op proof on a report: empty
// delta, every pipeline stage served from cache, nothing written.
func assertProvedNoOp(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.NoOp {
		t.Fatalf("re-apply not a no-op: %s", rep.Summary())
	}
	if len(rep.Build.Stages) == 0 || rep.Build.CacheHits != len(rep.Build.Stages) || rep.Build.CacheMisses != 0 {
		t.Errorf("no-op build not fully cached: %s", rep.Build.Summary())
	}
	if rep.DeltaEntries != 0 || rep.ProgramReloads != 0 {
		t.Errorf("no-op wrote: %d entries, %d program reloads", rep.DeltaEntries, rep.ProgramReloads)
	}
}

// TestApplyInitialAndNoOp is the acceptance path: the first apply
// deploys, re-applying the unchanged intent is a PROVED no-op — the
// full rebuild runs and every stage hits the artifact cache, zero
// branching entries are written and zero pipelet programs reload.
func TestApplyInitialAndNoOp(t *testing.T) {
	a := NewApplier(nil)
	doc := testDoc(t)

	rep := applyDoc(t, a, doc)
	if !rep.Initial || rep.NoOp {
		t.Fatalf("first apply misclassified: %s", rep.Summary())
	}
	if a.Deployment() == nil {
		t.Fatal("no live deployment after initial apply")
	}
	if a.Current() == nil || a.Current().Hash() != doc.Hash() {
		t.Fatal("applied intent not recorded")
	}

	rep2 := applyDoc(t, a, testDoc(t))
	assertProvedNoOp(t, rep2)
	if rep2.Hash != rep.Hash {
		t.Errorf("no-op re-apply changed the hash: %s vs %s", rep2.Hash, rep.Hash)
	}
	if noops, applies := counter(a.control, "dejavu_apply_noop_total"), counter(a.control, "dejavu_apply_total"); noops != 1 || applies != 2 {
		t.Errorf("stats applies=%v noops=%v, want 2/1", applies, noops)
	}
}

// TestApplyWeightOnly proves a weight-only intent edit does not
// recompose the pipelets: the composition stage is served from cache
// and no pipelet program reloads.
func TestApplyWeightOnly(t *testing.T) {
	a := NewApplier(nil)
	applyDoc(t, a, testDoc(t))

	next := testDoc(t)
	next.File.Chains[0].Weight = 0.6
	next.File.Chains[1].Weight = 0.4
	rep := applyDoc(t, a, next)
	if rep.NoOp || rep.Redeployed {
		t.Fatalf("weight change misclassified: %s", rep.Summary())
	}
	st := rep.Build.Stage(pipeline.StageComposition)
	if st == nil || !st.CacheHit {
		t.Errorf("weight-only apply recomposed: %+v (%s)", st, rep.Build.Summary())
	}
	if rep.ProgramReloads != 0 {
		t.Errorf("weight-only apply reloaded %d programs", rep.ProgramReloads)
	}
}

// TestApplyAddRemoveChain drives a chain add then its removal through
// the intent plane and checks the converger pushes a real write-set
// while reusing every composed program.
func TestApplyAddRemoveChain(t *testing.T) {
	a := NewApplier(nil)
	applyDoc(t, a, testDoc(t))

	withNew := testDoc(t)
	withNew.File.Chains = append(withNew.File.Chains, config.ChainSpec{
		PathID: 20, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1,
	})
	rep := applyDoc(t, a, withNew)
	if got := rep.Actions; len(got) != 3 {
		t.Fatalf("actions = %+v, want 3", got)
	}
	if rep.DeltaEntries == 0 {
		t.Error("chain add wrote no branching entries")
	}
	if rep.ProgramReloads != 0 {
		t.Errorf("same-NF chain add reloaded %d programs", rep.ProgramReloads)
	}

	rep = applyDoc(t, a, testDoc(t))
	d := Delta{Actions: rep.Actions}
	if d.Count(KindRemove) != 1 {
		t.Fatalf("revert actions = %+v, want one remove", rep.Actions)
	}
	if rep.DeltaEntries == 0 {
		t.Error("chain remove wrote no branching entries")
	}
	assertProvedNoOp(t, applyDoc(t, a, testDoc(t)))
}

// TestApplyPlacementHint proves a declared placement hint is honored:
// applying an intent that pins an NF to a different pipelet re-resolves
// the placement and the live deployment ends with the NF there.
func TestApplyPlacementHint(t *testing.T) {
	a := NewApplier(nil)
	applyDoc(t, a, testDoc(t))

	hinted := testDoc(t)
	hinted.Placement = map[string]string{"fw": "ingress 1"}
	rep := applyDoc(t, a, hinted)
	if rep.NoOp || rep.Redeployed {
		t.Fatalf("hint change misclassified: %s", rep.Summary())
	}
	dep := a.Deployment()
	got, ok := dep.Placement.Of("fw")
	want := asic.PipeletID{Pipeline: 1, Dir: asic.Ingress}
	if !ok || got != want {
		t.Fatalf("fw placed at %v, want %v", got, want)
	}
	// The moved deployment still forwards and lints clean.
	tr, err := dep.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("traffic after hinted move: %v %+v", err, tr)
	}
	if dep.Lint.HasErrors() {
		t.Errorf("lint errors after hinted move: %+v", dep.Lint)
	}
	assertProvedNoOp(t, applyDoc(t, a, hinted.Clone()))
}

// TestApplyTelemetryToggle proves the telemetry knob converges in
// place: no redeploy, no write-set, the datapath collector attaches
// and detaches.
func TestApplyTelemetryToggle(t *testing.T) {
	a := NewApplier(nil)
	applyDoc(t, a, testDoc(t))
	if a.Deployment().Datapath != nil {
		t.Fatal("datapath attached without telemetry intent")
	}

	on := testDoc(t)
	on.File.Telemetry = true
	rep := applyDoc(t, a, on)
	if rep.NoOp || rep.Redeployed {
		t.Fatalf("telemetry toggle misclassified: %s", rep.Summary())
	}
	if rep.DeltaEntries != 0 || rep.ProgramReloads != 0 {
		t.Errorf("in-place toggle wrote: %d entries, %d reloads", rep.DeltaEntries, rep.ProgramReloads)
	}
	if a.Deployment().Datapath == nil {
		t.Fatal("telemetry intent did not attach the datapath collector")
	}

	rep = applyDoc(t, a, testDoc(t))
	if a.Deployment().Datapath != nil {
		t.Fatal("telemetry removal did not detach the datapath collector")
	}
	if rep.NoOp {
		t.Error("telemetry removal misreported as no-op")
	}
	assertProvedNoOp(t, applyDoc(t, a, testDoc(t)))
}

// faultyApplier forwards writes to a controller, except that write
// number failAt (1-based) is rejected and after write number abortAfter
// the open transaction is lost, so the commit that follows fails.
type faultyApplier struct {
	ctrl                  *ctl.Controller
	n, failAt, abortAfter int
}

func (f *faultyApplier) Apply(w ctl.TableWrite) error {
	if f.n++; f.n == f.failAt {
		return errors.New("switch driver gone")
	}
	err := f.ctrl.Apply(w)
	if f.n == f.abortAfter {
		f.ctrl.AbortProgram()
	}
	return err
}

// TestApplyRollbackOnFault is the acceptance fault case: a failure at
// any step of the apply's program transaction — a staged write, the
// commit, the post-commit seam — must leave the deployment at the prior
// intent: the recorded intent is unchanged, so are the settings the
// update carried (the optimizer pin, strict_lint), traffic still flows
// on the prior chains, the lint report stays clean — and once the fault
// clears, the prior intent re-applies as a proved no-op and the new
// intent converges.
func TestApplyRollbackOnFault(t *testing.T) {
	prior := testDoc(t)
	next := testDoc(t)
	next.File.Chains = append(next.File.Chains, config.ChainSpec{
		PathID: 20, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1,
	})
	next.StrictLint = true
	next.Placement = map[string]string{"fw": "egress 1"}

	for _, tc := range []struct {
		name string
		arm  func(dep *core.Deployment, writes int)
	}{
		{"staged write", func(dep *core.Deployment, _ int) {
			dep.Driver = &fault.Driver{Applier: &faultyApplier{ctrl: dep.Controller, failAt: 1}, MaxAttempts: 1}
		}},
		{"commit", func(dep *core.Deployment, writes int) {
			dep.Driver = &fault.Driver{Applier: &faultyApplier{ctrl: dep.Controller, abortAfter: writes}, MaxAttempts: 1}
		}},
		{"post-commit seam", func(dep *core.Deployment, _ int) {
			dep.Controller.VerifyCommit = func() error { return errors.New("post-commit check failed") }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewApplier(nil)
			applyDoc(t, a, prior)
			dep := a.Deployment()
			placedFW, _ := dep.Placement.Of("fw")

			plan, err := a.Apply(next, Options{DryRun: true})
			if err != nil {
				t.Fatal(err)
			}
			orig := dep.Driver
			tc.arm(dep, plan.DeltaEntries+plan.ProgramReloads)
			rep, err := a.Apply(next, Options{})
			if err == nil {
				t.Fatal("apply succeeded through the fault")
			}
			if !rep.RolledBack {
				t.Errorf("report not marked rolled back: %s", rep.Summary())
			}
			if n := counter(a.control, "dejavu_apply_rollback_total"); n != 1 {
				t.Errorf("rollbacks counter = %v, want 1", n)
			}

			// The prior intent is still the applied one and the switch still
			// runs it: settings and placement as before, traffic forwards,
			// chains unchanged, lint clean.
			if cur := a.Current(); cur == nil || cur.Hash() != prior.Hash() {
				t.Fatal("failed apply advanced the recorded intent")
			}
			if got := len(dep.Config.Chains); got != len(prior.Chains) {
				t.Fatalf("deployment runs %d chains after rollback, want %d", got, len(prior.Chains))
			}
			if now, _ := dep.Placement.Of("fw"); dep.Config.StrictLint || dep.Config.Pin != nil || now != placedFW {
				t.Errorf("failed apply left its settings behind: strict=%v pin=%v fw on %s (was %s)",
					dep.Config.StrictLint, dep.Config.Pin, now, placedFW)
			}
			tr, injErr := dep.Inject(scenario.PortClient, scenario.InternetBound())
			if injErr != nil || tr.Dropped {
				t.Fatalf("traffic after rollback: %v %+v", injErr, tr)
			}
			if dep.Lint.HasErrors() {
				t.Errorf("lint findings after rollback: %+v", dep.Lint)
			}

			// The fault clears: the prior intent is a proved no-op, the new
			// one converges exactly as the dry run planned it.
			dep.Driver, dep.Controller.VerifyCommit = orig, nil
			assertProvedNoOp(t, applyDoc(t, a, prior.Clone()))
			rep = applyDoc(t, a, next.Clone())
			if rep.DeltaEntries == 0 || rep.DeltaEntries != plan.DeltaEntries || rep.ProgramReloads != plan.ProgramReloads {
				t.Errorf("recovered apply wrote %d entries / %d programs, dry run planned %d / %d",
					rep.DeltaEntries, rep.ProgramReloads, plan.DeltaEntries, plan.ProgramReloads)
			}
			if cur := a.Current(); cur.Hash() != next.Hash() {
				t.Error("recovered apply did not advance the recorded intent")
			}
			if now, _ := dep.Placement.Of("fw"); !dep.Config.StrictLint || now != (asic.PipeletID{Pipeline: 1, Dir: asic.Egress}) {
				t.Errorf("recovered apply did not carry its settings: strict=%v fw on %s", dep.Config.StrictLint, now)
			}
		})
	}
}

// TestApplyFailedInitialApplyRollsNothingBack: a first apply that fails
// has no prior intent to restore, so neither its report nor the
// rollback counter says it rolled back.
func TestApplyFailedInitialApplyRollsNothingBack(t *testing.T) {
	a := NewApplier(nil)
	doc := testDoc(t)
	doc.Placement = map[string]string{"fw": "ingress 9"}
	rep, err := a.Apply(doc, Options{})
	if err == nil {
		t.Fatal("a hint beyond the profile's pipelines applied")
	}
	if rep.RolledBack {
		t.Errorf("failed initial apply reports a rollback: %s", rep.Summary())
	}
	if n := counter(a.control, "dejavu_apply_rollback_total"); n != 0 {
		t.Errorf("rollbacks counter = %v after a failed initial apply, want 0", n)
	}
}

// TestApplyDryRun proves -dry-run plans without touching anything: the
// write-set is reported, the recorded intent and the switch stay put.
func TestApplyDryRun(t *testing.T) {
	a := NewApplier(nil)
	doc := testDoc(t)

	// A dry run before anything is applied deploys onto a throwaway switch.
	rep, err := a.Apply(doc, Options{DryRun: true})
	if err != nil {
		t.Fatalf("initial dry run: %v", err)
	}
	if !rep.DryRun || a.Deployment() != nil || a.Current() != nil {
		t.Fatal("initial dry run touched state")
	}

	applyDoc(t, a, doc)
	next := testDoc(t)
	next.File.Chains = append(next.File.Chains, config.ChainSpec{
		PathID: 20, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1,
	})
	rep, err = a.Apply(next, Options{DryRun: true})
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if rep.DeltaEntries == 0 {
		t.Error("dry run planned an empty write-set for a chain add")
	}
	if a.Current().Hash() != doc.Hash() {
		t.Fatal("dry run advanced the recorded intent")
	}
	if got := len(a.Deployment().Config.Chains); got != len(doc.Chains) {
		t.Fatalf("dry run mutated the deployment: %d chains", got)
	}
	if n := counter(a.control, "dejavu_apply_dryrun_total"); n != 2 {
		t.Errorf("dry-run counter = %v, want 2", n)
	}
	// The planned apply then really converges.
	if rep = applyDoc(t, a, next); rep.DeltaEntries == 0 {
		t.Error("real apply after dry run wrote nothing")
	}
}

// TestApplyFabric fans one intent across a multi-switch fabric: the
// initial apply reconciles the fleet, the unchanged re-apply converges
// with zero reprogrammed switches, and a chain edit re-converges.
func TestApplyFabric(t *testing.T) {
	a := NewApplier(nil)
	doc := testDoc(t)
	// The empty pin map is what `"pin": {}` parses to: the applier's
	// copy of the document must keep it, or the re-apply below is a
	// fabric change against that copy.
	doc.Fabric = &FabricSpec{Switches: 3, StageDemand: map[string]int{"classifier": 6, "fw": 6, "router": 6},
		Pin: map[string]int{}}

	rep := applyDoc(t, a, doc)
	if !rep.Initial {
		t.Fatalf("fabric first apply misclassified: %s", rep.Summary())
	}
	if a.FabricDeployment() == nil || a.Deployment() != nil {
		t.Fatal("fabric apply did not adopt a fabric deployment")
	}
	if len(rep.Fabric.Switches) == 0 {
		t.Fatal("fabric apply reports no switch path")
	}
	if len(rep.Fabric.Blackholed) != 0 {
		t.Fatalf("fabric blackholed chains: %v", rep.Fabric.Blackholed)
	}
	if len(rep.Fabric.Routes) != len(doc.Chains) {
		t.Fatalf("fabric apply reports %d chain routes, want %d", len(rep.Fabric.Routes), len(doc.Chains))
	}
	for id, r := range rep.Fabric.Routes {
		if len(r.Path) == 0 || len(r.Segments) != len(r.Path) {
			t.Fatalf("chain %d route malformed: path %v, %d segments", id, r.Path, len(r.Segments))
		}
	}

	for _, same := range []*Document{doc, doc.Clone()} {
		if rep = applyDoc(t, a, same); !rep.NoOp {
			t.Fatalf("unchanged fabric re-apply not a no-op: %s", rep.Summary())
		}
	}
	if len(rep.Fabric.Changed) != 0 || rep.ProgramReloads != 0 {
		t.Errorf("fabric no-op reprogrammed switches %v (%d reloads)",
			rep.Fabric.Changed, rep.ProgramReloads)
	}

	next := doc.Clone()
	next.File.Chains = append(next.File.Chains, config.ChainSpec{
		PathID: 20, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1,
	})
	rep = applyDoc(t, a, next)
	if rep.NoOp {
		t.Fatal("fabric chain add misreported as no-op")
	}
	if got := len(a.FabricDeployment().Chains); got != 3 {
		t.Fatalf("fabric runs %d chains, want 3", got)
	}
	// Fabric no-op proof: the level-triggered reconciler converges with
	// zero reprogrammed switches (there is no staged single-switch build
	// to cache-check in fabric mode).
	rep = applyDoc(t, a, next.Clone())
	if !rep.NoOp || len(rep.Fabric.Changed) != 0 || rep.ProgramReloads != 0 {
		t.Fatalf("fabric re-apply not a proved no-op: %s (changed %v)", rep.Summary(), rep.Fabric.Changed)
	}
}

// TestApplyFabricRecordsRounds: a fabric driven by applies, with no
// soak, records each reconcile round into its deployment's set — the
// initial apply's commits, and none for an unchanged re-apply.
func TestApplyFabricRecordsRounds(t *testing.T) {
	a := NewApplier(nil)
	doc := testDoc(t)
	doc.Fabric = &FabricSpec{Switches: 3, StageDemand: map[string]int{"classifier": 6, "fw": 6, "router": 6}}
	first := applyDoc(t, a, doc)
	if len(first.Fabric.Changed) == 0 {
		t.Fatal("the initial fabric apply programmed no switch")
	}
	control := a.FabricDeployment().Control
	after := counter(control, "dejavu_fabric_replacements_total")
	if rep := applyDoc(t, a, doc.Clone()); !rep.NoOp {
		t.Fatalf("re-apply not a no-op: %s", rep.Summary())
	}
	if n := counter(control, "dejavu_fabric_reconciles_total"); n != 2 {
		t.Errorf("reconciles = %v, want 2", n)
	}
	if after != float64(len(first.Fabric.Changed)) {
		t.Errorf("replacements after the initial apply = %v, it programmed switches %v", after, first.Fabric.Changed)
	}
	if n := counter(control, "dejavu_fabric_replacements_total"); n != after {
		t.Errorf("the no-op re-apply added %v replacements", n-after)
	}
}

// TestApplyReportsCommittedWrites: an apply reports the write-set its
// switches committed — a fleet's summed over its switch controllers, a
// fleet chain delta only what it added, a deploy its whole initial
// program — and a converged re-apply reports none.
func TestApplyReportsCommittedWrites(t *testing.T) {
	committed := func(ctrls ...*ctl.Controller) (entries, programs int) {
		for _, c := range ctrls {
			st := c.Stats()
			entries, programs = entries+st.EntryWrites, programs+st.ProgramWrites
		}
		return entries, programs
	}
	check := func(what string, rep *Report, entries, programs int) {
		t.Helper()
		if rep.DeltaEntries != entries || rep.ProgramReloads != programs {
			t.Errorf("%s reports %d entries and %d program reloads; its switches committed %d and %d",
				what, rep.DeltaEntries, rep.ProgramReloads, entries, programs)
		}
	}

	a := NewApplier(nil)
	doc := testDoc(t)
	doc.Fabric = &FabricSpec{Switches: 3, StageDemand: map[string]int{"classifier": 6, "fw": 6, "router": 6}}
	rep := applyDoc(t, a, doc)
	e, p := committed(a.FabricDeployment().Controllers...)
	if p == 0 {
		t.Fatal("the fleet's initial apply committed no pipelet program")
	}
	check("fleet initial apply", rep, e, p)

	next := doc.Clone()
	next.File.Chains = append(next.File.Chains, config.ChainSpec{
		PathID: 20, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1,
	})
	rep = applyDoc(t, a, next)
	e2, p2 := committed(a.FabricDeployment().Controllers...)
	check("fleet chain delta", rep, e2-e, p2-p)
	if rep = applyDoc(t, a, next.Clone()); !rep.NoOp || rep.DeltaEntries != 0 || rep.ProgramReloads != 0 {
		t.Errorf("fleet re-apply not a proved no-op: %s", rep.Summary())
	}

	a = NewApplier(nil)
	rep = applyDoc(t, a, testDoc(t))
	e, p = committed(a.Deployment().Controller)
	if p == 0 {
		t.Fatal("the initial deploy committed no pipelet program")
	}
	check("single-switch initial apply", rep, e, p)
}

// TestApplyFabricPins: fabric.pin homes an NF on the named switch and
// the placer routes every chain using it through that switch — the
// fabric-mode analogue of single-switch placement hints.
func TestApplyFabricPins(t *testing.T) {
	a := NewApplier(nil)
	doc := testDoc(t)
	doc.Fabric = &FabricSpec{
		Switches:    3,
		StageDemand: map[string]int{"classifier": 6, "fw": 6, "router": 6},
		Pin:         map[string]int{"fw": 1},
	}

	rep := applyDoc(t, a, doc)
	if len(rep.Fabric.Blackholed) != 0 {
		t.Fatalf("pinned fabric apply blackholed chains: %v", rep.Fabric.Blackholed)
	}
	fd := a.FabricDeployment()
	if fd == nil {
		t.Fatal("fabric apply did not adopt a fabric deployment")
	}
	if got := fd.Homes["fw"]; got != 1 {
		t.Fatalf("pinned NF fw homed on switch %d, want 1", got)
	}
	for id, r := range fd.Routes {
		usesFW := false
		for _, seg := range r.Segments {
			for _, n := range seg {
				if n == "fw" {
					usesFW = true
				}
			}
		}
		onPin := false
		for _, s := range r.Path {
			if s == 1 {
				onPin = true
			}
		}
		if usesFW && !onPin {
			t.Fatalf("chain %d uses pinned fw but routes %v around switch 1", id, r.Path)
		}
	}
}

// TestFabricDryRunRejectsWhatApplyRejects: an NF of 13 stages fits a
// 48-unit switch, so the fabric placer homes it, but fits no 12-stage
// pipelet, so the per-switch placement fails. The dry run used to drop
// that error and approve an intent the real apply refuses — on a fresh
// fabric and on a live one alike. It also approved a switch program the
// build refuses (DV001), because it staged no switch build.
func TestFabricDryRunRejectsWhatApplyRejects(t *testing.T) {
	const refusal = `cannot fit NF "fw"`
	doc := testDoc(t)
	doc.Fabric = &FabricSpec{Switches: 3, StageDemand: map[string]int{"fw": 13}}

	a := NewApplier(nil)
	if rep, err := a.Apply(doc, Options{DryRun: true}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("fresh-fabric dry run: err = %v, round %+v; want %s", err, rep.Fabric, refusal)
	}
	if _, err := a.Apply(doc, Options{}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("real apply: err = %v; want %s", err, refusal)
	}

	// Live fabric: deploy without the fw chain, then plan adding it.
	without := doc.Clone()
	without.Chains = without.Chains[1:]
	applyDoc(t, a, without)
	if rep, err := a.Apply(doc, Options{DryRun: true}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("live-fabric dry run: err = %v, round %+v; want %s", err, rep.Fabric, refusal)
	}
	if got := len(a.FabricDeployment().Chains); got != 1 {
		t.Fatalf("dry run left %d desired chains on the live fabric, want 1", got)
	}
	if _, err := a.Apply(doc, Options{}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("real apply on the live fabric: err = %v; want %s", err, refusal)
	}

	// DV001: the placers accept a switch program that the build refuses.
	// A document's own NF sections need nine stages all together, so they
	// cannot overflow a 12-stage pipelet. The live fabric here runs three
	// 5-stage NFs declared at one stage each instead, and the document
	// chains all three of them.
	f, err := cluster.NewSpineFabric(asic.Wedge100B(), 2)
	if err != nil {
		t.Fatal(err)
	}
	deep := nf.List{newDeepNF("a", 5), newDeepNF("b", 5), newDeepNF("c", 5)}
	fd, err := cluster.NewFabricDeployment(f, []route.Chain{{PathID: 10, NFs: []string{"a"}, Weight: 1}}, deep,
		map[string]int{"a": 1, "b": 1, "c": 1})
	if err != nil {
		t.Fatal(err)
	}
	a = NewApplier(nil)
	a.fab = fd
	if _, err := cluster.NewReconciler(fd).Reconcile(); err != nil {
		t.Fatal(err)
	}
	overflow := testDoc(t)
	overflow.Chains = []config.ChainSpec{{PathID: 10, NFs: []string{"a", "b", "c"}, Weight: 1}}
	for _, dry := range []bool{true, false} {
		if err := a.convergeFabric(overflow, false, &Report{DryRun: dry}); err == nil || !strings.Contains(err.Error(), "DV001") {
			t.Errorf("DV001, dry run %v: err = %v; want the build's refusal", dry, err)
		}
	}
}

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

// TestApplyRejectsInvalidDocument: validation failures surface before
// any converge and leave the applier untouched.
func TestApplyRejectsInvalidDocument(t *testing.T) {
	a := NewApplier(nil)
	applyDoc(t, a, testDoc(t))
	bad := testDoc(t)
	bad.SchemaVersion = 99
	if _, err := a.Apply(bad, Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown schema version") {
		t.Fatalf("invalid document accepted: %v", err)
	}
	if a.Current().Hash() != testDoc(t).Hash() {
		t.Fatal("rejected document advanced the recorded intent")
	}
}

// TestApplyHammer re-applies mutated intents while traffic floods the
// stable path: every packet must observe a coherent old-or-new
// snapshot — zero drops. Run with -race.
func TestApplyHammer(t *testing.T) {
	a := NewApplier(nil)
	base := testDoc(t)
	applyDoc(t, a, base)
	sw := a.Deployment().Switch

	var injected, dropped atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				q, err := sw.InjectQuiet(scenario.PortClient, scenario.InternetBound())
				injected.Add(1)
				if err != nil || q.Dropped {
					dropped.Add(1)
				}
			}
		}()
	}
	for injected.Load() == 0 {
		runtime.Gosched()
	}

	withExtra := base.Clone()
	withExtra.File.Chains = append(withExtra.File.Chains, config.ChainSpec{
		PathID: 99, NFs: []string{"classifier", "fw", "router"}, Weight: 0.05,
	})
	churns := 4
	for i := 0; i < churns; i++ {
		applyDoc(t, a, withExtra.Clone())
		applyDoc(t, a, base.Clone())
	}
	close(done)
	wg.Wait()

	if injected.Load() == 0 {
		t.Fatal("no packets injected during apply churn")
	}
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d of %d packets dropped during applies", n, injected.Load())
	}
	assertProvedNoOp(t, applyDoc(t, a, base.Clone()))
}
