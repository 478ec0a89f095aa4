package intent

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/core"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
	"dejavu/internal/telemetry"
)

// Options tunes one Apply call.
type Options struct {
	// DryRun runs the converge up to its first write and reports what
	// the apply would write; nothing live or recorded is touched.
	DryRun bool
}

// Report is the structured outcome of one Apply: the semantic delta,
// the convergence proof (pipeline cache statuses, write-set sizes) and
// what actually happened. Its JSON shape, plus the write-set the CLI
// renders, is what `dejavu apply -json` prints (docs/CLI.md).
type Report struct {
	// Name and Hash identify the applied document.
	Name string `json:"name,omitempty"`
	Hash string `json:"hash"`
	// Actions is the per-chain action list and Global the changed
	// deployment-wide settings (see Delta).
	Actions []Action `json:"actions"`
	Global  []string `json:"global,omitempty"`
	// Initial marks the first apply (nothing to diff against).
	Initial bool `json:"initial,omitempty"`
	// NoOp reports that the delta was empty AND the converge proved it:
	// zero branching entries written, zero pipelet programs reloaded.
	NoOp bool `json:"noop"`
	// DryRun marks a plan-only run.
	DryRun bool `json:"dry_run,omitempty"`
	// RolledBack reports that a failed apply restored (or preserved)
	// the prior intent.
	RolledBack bool `json:"rolled_back,omitempty"`
	// Redeployed reports that a global setting forced a fresh
	// deployment instead of an incremental hot swap.
	Redeployed bool `json:"redeployed,omitempty"`
	// ConvergenceNS is the wall time of the converge.
	ConvergenceNS int64 `json:"convergence_ns"`
	// Build is the staged-pipeline report of the converge's build
	// (per-stage cached/dirty), a deploy's included; zero-valued for
	// fabric applies.
	Build pipeline.BuildInfo `json:"build"`
	// DeltaEntries and ProgramReloads are the write-set sizes the
	// converge pushed: branching-table entry ops and pipelet program
	// swaps — a deploy's whole initial program, and in fabric mode what
	// every switch's controller committed. Both zero on a proved no-op.
	DeltaEntries   int `json:"delta_entries"`
	ProgramReloads int `json:"program_reloads"`
	// ChangedPrograms and Delta are that write-set on one switch, a dry
	// run's included, left to the printer to render; nil in fabric mode.
	ChangedPrograms []asic.PipeletID `json:"-"`
	Delta           []route.EntryOp  `json:"-"`
	// Fabric-mode results: the switches the placement uses, the
	// switches reprogrammed this apply, per-chain routes from the
	// cost-based placer, chains the converge re-placed onto new
	// routes, and chains that cannot carry traffic.
	FabricPath       []int                         `json:"fabric_path,omitempty"`
	FabricChanged    []int                         `json:"fabric_changed,omitempty"`
	FabricRoutes     map[uint16]cluster.ChainRoute `json:"fabric_routes,omitempty"`
	FabricReplaced   []uint16                      `json:"fabric_replaced,omitempty"`
	FabricBlackholed map[uint16]string             `json:"fabric_blackholed,omitempty"`
}

// Summary renders the report in one line.
func (r *Report) Summary() string {
	d := Delta{Actions: r.Actions, Global: r.Global}
	switch {
	case r.DryRun:
		return fmt.Sprintf("dry-run: %s", d.Summary())
	case r.NoOp:
		return fmt.Sprintf("no-op: %s; %d entries, %d program reloads", d.Summary(), r.DeltaEntries, r.ProgramReloads)
	case r.Initial:
		return fmt.Sprintf("initial apply: %s", d.Summary())
	default:
		return fmt.Sprintf("applied: %s; %d entries, %d program reloads", d.Summary(), r.DeltaEntries, r.ProgramReloads)
	}
}

// wrote records a single-switch converge's build and write-set.
func (r *Report) wrote(info pipeline.BuildInfo, programs []asic.PipeletID, delta []route.EntryOp) {
	r.Build, r.ChangedPrograms, r.Delta = info, programs, delta
	r.DeltaEntries, r.ProgramReloads = len(delta), len(programs)
}

// Applier converges deployments toward applied intent documents. It
// remembers the last successfully applied document; each Apply diffs
// the new document against it and drives only the difference through
// the incremental pipeline and the control plane's program
// transactions. A failed apply leaves the recorded intent (and the
// switch) at the prior state. Safe for concurrent use.
type Applier struct {
	mu   sync.Mutex
	last *Document
	dep  *core.Deployment
	fab  *cluster.FabricDeployment
	frec *cluster.Reconciler
	// control records every apply, rollback and dry run; never nil.
	control *telemetry.Control
}

// NewApplier creates an applier with no applied intent that records
// its applies into control, or into a set of its own when control is
// nil.
func NewApplier(control *telemetry.Control) *Applier {
	if control == nil {
		control = telemetry.NewControl()
	}
	return &Applier{control: control}
}

// Current returns a copy of the last successfully applied document, or
// nil before the first apply.
func (a *Applier) Current() *Document {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.last == nil {
		return nil
	}
	return a.last.Clone()
}

// Deployment returns the live single-switch deployment, or nil before
// the first (non-fabric) apply.
func (a *Applier) Deployment() *core.Deployment {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dep
}

// FabricDeployment returns the live fabric deployment, or nil outside
// fabric mode.
func (a *Applier) FabricDeployment() *cluster.FabricDeployment {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fab
}

// redeployGlobals are the deployment-wide settings an incremental hot
// swap cannot change: they force a fresh deployment.
var redeployGlobals = map[string]bool{
	"profile": true, "enter": true, "loopback_ports": true,
	"nf_sections": true, "postcards": true, "fabric": true,
}

// needsRedeploy reports whether the delta's global changes force a
// fresh deployment.
func needsRedeploy(delta *Delta) bool {
	return slices.ContainsFunc(delta.Global, func(g string) bool { return redeployGlobals[g] })
}

// Apply converges toward doc. The first call deploys it; later calls
// diff doc against the last applied document and converge the
// difference — an unchanged document is a proved no-op (every pipeline
// stage cached, zero branching entries, zero program reloads), and any
// failure leaves both the recorded intent and the switch at the prior
// state. With Options.DryRun the converge stops before its first write
// to anything live: a fresh deploy lands on a throwaway switch.
func (a *Applier) Apply(doc *Document, opts Options) (*Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	if err := doc.Validate(); err != nil {
		return nil, err
	}
	delta := Diff(a.last, doc)
	rep := &Report{
		Name: doc.Name, Hash: doc.Hash(),
		Actions: delta.Actions, Global: delta.Global,
		Initial: a.last == nil, DryRun: opts.DryRun,
	}

	// A recorded intent implies a live deployment of its mode, and a
	// document of the other mode differs in the "fabric" global: whether
	// to build fresh is decided here, once, for every mode and for the
	// dry run alike.
	fresh := a.last == nil || needsRedeploy(delta)
	rep.Redeployed = fresh && !rep.Initial
	start := time.Now()
	var err error
	switch {
	case doc.Fabric != nil:
		err = a.convergeFabric(doc, fresh, rep)
	case fresh:
		err = a.deploy(doc, rep)
	default:
		err = a.update(doc, rep)
	}
	if opts.DryRun {
		if err == nil {
			a.control.RecordDryRun()
		}
		return rep, err
	}
	rep.ConvergenceNS = time.Since(start).Nanoseconds()
	if err != nil {
		// The converge paths guarantee the prior deployment is intact
		// (pre-commit failures abort, post-commit failures reinstall the
		// prior programs), so the recorded intent stays too. A failed
		// first apply has no prior intent to roll back to.
		if a.last != nil {
			rep.RolledBack = true
			a.control.RecordRollback()
		}
		return rep, err
	}

	a.last = doc.Clone()
	rep.NoOp = !rep.Initial && delta.Empty() && rep.DeltaEntries == 0 && rep.ProgramReloads == 0
	a.control.RecordApply(delta.Count(KindAdd), delta.Count(KindRemove), delta.Count(KindUpdate),
		rep.NoOp, rep.ConvergenceNS)
	return rep, nil
}

// deploy builds the document fresh on a new switch — the initial apply
// and every redeploy-forcing global change; a dry run deploys onto a
// throwaway switch the applier does not adopt.
func (a *Applier) deploy(doc *Document, rep *Report) error {
	cfg, err := doc.BuildConfig()
	if err != nil {
		return err
	}
	dep, err := core.Deploy(*cfg)
	if err != nil {
		return err
	}
	rep.wrote(dep.LastBuild, dep.LastReloaded, dep.LastDelta)
	if !rep.DryRun {
		a.dep, a.fab, a.frec = dep, nil, nil
	}
	return nil
}

// update drives everything else through the live deployment's one
// update path: the chain set and the hot-swappable settings, telemetry
// included, go in together, core keeps the placement or re-resolves
// it, and a dry run stops before the first write.
func (a *Applier) update(doc *Document, rep *Report) error {
	d := a.dep
	u, err := doc.update(d.Config.Prof)
	if err != nil {
		return err
	}
	if rep.DryRun {
		res, delta, err := d.Plan(u)
		if err != nil {
			return err
		}
		rep.wrote(res.Info, res.ChangedFuncs, delta)
		return nil
	}
	if err := d.Apply(u); err != nil {
		return err
	}
	rep.wrote(d.LastBuild, d.LastReloaded, d.LastDelta)
	return nil
}

// buildFabric wires the document's fabric (the spine-plus-skip-wire
// topology of `dejavu chaos -switches`) and prepares a deployment over it.
func (a *Applier) buildFabric(doc *Document, cfg *core.Config) (*cluster.FabricDeployment, error) {
	f, err := cluster.NewSpineFabric(cfg.Prof, doc.Fabric.Switches)
	if err != nil {
		return nil, err
	}
	fd, err := cluster.NewFabricDeployment(f, cfg.Chains, cfg.NFs, doc.Fabric.StageDemand)
	if err != nil {
		return nil, err
	}
	fd.Pins = doc.Fabric.Pin
	return fd, nil
}

// convergeFabric drives a fabric-mode apply: initial (or
// redeploy-forcing) applies build the fabric fresh and reconcile it
// onto the topology; chain-only deltas update the desired set on the
// live fabric and let the level-triggered reconciler converge — an
// unchanged intent reconciles to Converged with zero reprogrammed
// switches. A failed chain-delta converge restores the prior chain set
// and re-reconciles, so the fabric ends at the prior intent. A dry run
// plans the same fabric and chain set and installs nothing; a plan the
// reconcile would reject is an error there too.
func (a *Applier) convergeFabric(doc *Document, fresh bool, rep *Report) error {
	fab, frec := a.fab, a.frec
	if fresh {
		cfg, err := doc.BuildConfig()
		if err != nil {
			return err
		}
		if fab, err = a.buildFabric(doc, cfg); err != nil {
			return err
		}
		frec = cluster.NewReconciler(fab)
	}
	prior := fab.Chains
	if rep.DryRun {
		fab.Chains = doc.RouteChains()
		plan, err := fab.Plan()
		fab.Chains = prior
		if err != nil {
			return err
		}
		rep.FabricPath, rep.FabricRoutes, rep.FabricBlackholed = plan.Switches, plan.Routes, plan.Blackholed
		return nil
	}
	if !fresh {
		if err := fab.SetChains(doc.RouteChains()); err != nil {
			return err
		}
	}
	committed := func() (entries, programs int) {
		for _, c := range fab.Controllers {
			st := c.Stats()
			entries, programs = entries+st.EntryWrites, programs+st.ProgramWrites
		}
		return entries, programs
	}
	entries, programs := committed()
	frep, err := frec.Reconcile()
	switch {
	case err != nil && fresh:
		return err
	case err != nil:
		// Converge failed partway: restore the prior desired set and let
		// the reconciler put every switch back. A rollback failure is
		// reported alongside the original cause — the fabric needs an
		// operator at that point.
		fab.Chains = prior
		if _, rbErr := frec.Reconcile(); rbErr != nil {
			return fmt.Errorf("intent: apply failed (%w) AND fabric rollback failed: %v", err, rbErr)
		}
		return fmt.Errorf("intent: apply failed, fabric rolled back to prior intent: %w", err)
	}
	rep.FabricPath = frep.Switches
	rep.FabricChanged = frep.Changed
	rep.FabricRoutes = frep.Routes
	rep.FabricReplaced = frep.Replaced
	rep.FabricBlackholed = frep.Blackholed
	e, p := committed()
	rep.DeltaEntries, rep.ProgramReloads = e-entries, p-programs
	a.fab, a.frec, a.dep = fab, frec, nil
	return nil
}
