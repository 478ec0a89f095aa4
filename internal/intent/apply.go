package intent

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dejavu/internal/cluster"
	"dejavu/internal/core"
	"dejavu/internal/pipeline"
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
	// converge pushed, summed over Writes: branching-table entry ops and
	// pipelet program swaps — a deploy's whole initial program. Both
	// zero on a proved no-op.
	DeltaEntries   int `json:"delta_entries"`
	ProgramReloads int `json:"program_reloads"`
	// Writes is that write-set per switch, a dry run's included, left to
	// the printer to render: one switch's as switch 0, and in fabric mode
	// each switch the round staged.
	Writes []cluster.SwitchWrite `json:"-"`
	// Fabric is the fabric round's report (routes, changed switches,
	// re-placed and blackholed chains), nil for one switch.
	Fabric *cluster.ReconcileReport `json:"-"`
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

// wrote records a converge's build (none on a fabric) and its write-set
// per switch, with the sizes summed over the switches.
func (r *Report) wrote(info pipeline.BuildInfo, writes ...cluster.SwitchWrite) {
	r.Build, r.Writes = info, writes
	for _, w := range writes {
		r.DeltaEntries += len(w.Delta)
		r.ProgramReloads += len(w.Programs)
	}
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
	rep.wrote(dep.LastBuild, cluster.SwitchWrite{Programs: dep.LastReloaded, Delta: dep.LastDelta})
	if !rep.DryRun {
		a.dep, a.fab = dep, nil
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
		if err == nil {
			rep.wrote(res.Info, cluster.SwitchWrite{Programs: res.ChangedFuncs, Delta: delta})
		}
		return err
	}
	if err := d.Apply(u); err != nil {
		return err
	}
	rep.wrote(d.LastBuild, cluster.SwitchWrite{Programs: d.LastReloaded, Delta: d.LastDelta})
	return nil
}

// convergeFabric drives a fabric-mode apply on a fresh fabric (the
// `dejavu chaos -switches` spine) or the live one. A dry run is the
// fabric's Plan toward the document's chains; an apply sets the chains
// and reconciles, an unchanged intent to Converged with zero
// reprogrammed switches. A failed chain-delta converge restores the
// prior chain set and re-reconciles, so the fabric ends at the prior
// intent.
func (a *Applier) convergeFabric(doc *Document, fresh bool, rep *Report) error {
	fab := a.fab
	if fresh {
		cfg, err := doc.BuildConfig()
		if err != nil {
			return err
		}
		f, err := cluster.NewSpineFabric(cfg.Prof, doc.Fabric.Switches)
		if err != nil {
			return err
		}
		if fab, err = cluster.NewFabricDeployment(f, cfg.Chains, cfg.NFs, doc.Fabric.StageDemand); err != nil {
			return err
		}
		fab.Pins = doc.Fabric.Pin
	}
	chains := doc.RouteChains()
	if rep.DryRun {
		round, err := fab.Plan(chains)
		if err == nil {
			rep.Fabric = round
			rep.wrote(pipeline.BuildInfo{}, round.Writes...)
		}
		return err
	}
	prior, frec := fab.Chains, cluster.NewReconciler(fab)
	if err := fab.SetChains(chains); err != nil {
		return err
	}
	round, err := frec.Reconcile()
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
	rep.Fabric = round
	rep.wrote(pipeline.BuildInfo{}, round.Writes...)
	a.fab, a.dep = fab, nil
	return nil
}
