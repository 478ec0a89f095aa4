package core

import (
	"fmt"
	"sort"

	"dejavu/internal/asic"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/route"
)

// Reconciler rule IDs, in the internal/lint findings format so chaos
// reports and static-verification reports read the same way.
const (
	// RuleRCPortDown: a front-panel port failed.
	RuleRCPortDown = "RC001"
	// RuleRCRepoint: a chain's static exit was re-pointed to a live port.
	RuleRCRepoint = "RC002"
	// RuleRCCapacity: sustainable capacity dropped below offered load.
	RuleRCCapacity = "RC003"
	// RuleRCBlackhole: a chain has no healthy exit — operator action
	// required. The only error-severity degradation.
	RuleRCBlackhole = "RC004"
	// RuleRCRecovered: a port (and its roles) came back.
	RuleRCRecovered = "RC005"
	// RuleRCReplaced: placement was re-optimized to claw back capacity.
	RuleRCReplaced = "RC006"
)

// ReconcileReport is the structured outcome of reconciling one fault
// event: what the reconciler did, and a degradation report in the
// lint findings format.
type ReconcileReport struct {
	Event fault.Event
	// Actions lists what was changed, in execution order, as
	// deterministic human-readable lines.
	Actions []string
	// Degradation collects findings about the deployment's post-event
	// health; error severity means the reconciler could not self-heal.
	Degradation *lint.Report
	// Repointed maps chain path IDs to their new static exit ports.
	Repointed map[uint16]asic.PortID
	// Replaced reports whether placement was re-optimized.
	Replaced bool
}

// Reconciler is the self-healing loop of a live deployment: it
// consumes fault events (port flaps, overloads) and port-health
// signals, repairs what it can — re-budgeting recirculation bandwidth,
// re-pointing chains whose static exit died, re-running placement when
// sustainable capacity falls below the offered load — and reports the
// degradation it could not repair.
type Reconciler struct {
	Dep *Deployment
	// OfferedGbps is the external load the deployment must sustain;
	// zero disables the capacity check.
	OfferedGbps float64
}

// NewReconciler builds a reconciler over a live deployment.
func NewReconciler(d *Deployment, offeredGbps float64) *Reconciler {
	return &Reconciler{Dep: d, OfferedGbps: offeredGbps}
}

// HandleEvent reconciles one fault event against the deployment. It
// is deterministic: the same deployment state and event sequence
// produce the same actions and findings.
func (r *Reconciler) HandleEvent(ev fault.Event) (*ReconcileReport, error) {
	rep := &ReconcileReport{
		Event:       ev,
		Degradation: lint.NewReport(),
		Repointed:   make(map[uint16]asic.PortID),
	}
	switch ev.Kind {
	case fault.PortDown:
		if err := r.portDown(ev.Port, rep); err != nil {
			return rep, err
		}
	case fault.PortUp:
		if err := r.portUp(ev.Port, rep); err != nil {
			return rep, err
		}
	case fault.RecircOverload:
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCCapacity, Severity: lint.SevWarn,
			Where:   fmt.Sprintf("port %d", ev.Port),
			Message: fmt.Sprintf("recirculation queue overloaded for %d tick(s); transient loss expected", ev.Dur()),
			Fix:     "add loopback ports or reduce weighted recirculations",
		})
	default:
		// Wire corruption and table-write faults are absorbed by the
		// parser and the retry driver; nothing to reconcile.
	}
	rep.Degradation.Sort()
	return rep, nil
}

// checkCapacity verifies the post-failure loopback budget still
// sustains the offered load and tries a re-placement when it does not.
func (r *Reconciler) checkCapacity(rep *ReconcileReport) error {
	if r.OfferedGbps <= 0 {
		return nil
	}
	sustainable := r.sustainableGbps()
	if sustainable >= r.OfferedGbps {
		return nil
	}
	rep.Degradation.Add(lint.Finding{
		Rule: RuleRCCapacity, Severity: lint.SevWarn,
		Where: "capacity",
		Message: fmt.Sprintf("sustainable load %.0f Gbps below offered %.0f Gbps after failure",
			sustainable, r.OfferedGbps),
		Fix: "re-run placement or shed load",
	})
	// Try to claw capacity back by re-optimizing the placement for
	// fewer weighted recirculations.
	improved, err := r.replace(rep)
	if err != nil {
		return err
	}
	if !improved && r.sustainableGbps() < r.OfferedGbps {
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCCapacity, Severity: lint.SevWarn,
			Where:   "capacity",
			Message: "placement already minimal; deployment stays degraded",
			Fix:     "restore failed loopback ports or add more",
		})
	}
	return nil
}

// sustainableGbps is the offered load the remaining loopback budget
// sustains losslessly at the current weighted recirculation count.
func (r *Reconciler) sustainableGbps() float64 {
	d := r.Dep
	k := d.WeightedRecirculations()
	if k <= 0 {
		return d.Capacity.ExternalGbps()
	}
	return d.LoopbackGbps() / k
}

// replace stages the live chain set re-resolved by the greedy optimizer
// (fast enough for a repair loop) and commits it when that strictly
// reduces the weighted recirculation cost. It reports whether a swap
// happened.
func (r *Reconciler) replace(rep *ReconcileReport) (bool, error) {
	d := r.Dep
	u := d.keep(d.Config.Chains)
	u.Replace, u.Optimizer = true, OptGreedy
	st, err := d.stage(u)
	if err != nil {
		// Infeasible re-placement is a degradation, not a reconciler
		// crash.
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCCapacity, Severity: lint.SevWarn,
			Where: "placement", Message: fmt.Sprintf("re-placement infeasible: %v", err),
		})
		return false, nil
	}
	oldCost, cost := d.Cost, st.next.Res.Cost
	if !cost.Less(oldCost) {
		return false, nil
	}
	// The repair loop's strategy is not the operator's declared one.
	st.cfg.Optimizer = d.Config.Optimizer
	if err := d.commit(st); err != nil {
		return false, err
	}
	rep.Replaced = true
	rep.Actions = append(rep.Actions,
		fmt.Sprintf("re-placed NFs: weighted recircs %.2f -> %.2f", oldCost.WeightedRecircs, cost.WeightedRecircs))
	rep.Degradation.Add(lint.Finding{
		Rule: RuleRCReplaced, Severity: lint.SevInfo,
		Where:   "placement",
		Message: fmt.Sprintf("placement re-optimized, weighted recirculations %.2f -> %.2f", oldCost.WeightedRecircs, cost.WeightedRecircs),
	})
	return true, nil
}

// portDown absorbs a port failure: capacity re-budgeting via
// HandlePortDown, then re-pointing every chain whose static exit died.
func (r *Reconciler) portDown(port asic.PortID, rep *ReconcileReport) error {
	d := r.Dep
	down, err := d.HandlePortDown(port)
	if err != nil {
		// Already-handled ports (duplicate events) degrade to a note.
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCPortDown, Severity: lint.SevInfo,
			Where: fmt.Sprintf("port %d", port), Message: fmt.Sprintf("ignored: %v", err),
		})
		return nil
	}
	rep.Actions = append(rep.Actions, fmt.Sprintf("port %d down: re-budgeted capacity", port))
	sev := lint.SevInfo
	if down.WasLoopback {
		sev = lint.SevWarn
	}
	rep.Degradation.Add(lint.Finding{
		Rule: RuleRCPortDown, Severity: sev,
		Where: fmt.Sprintf("port %d", port),
		Message: fmt.Sprintf("port failed (loopback=%v): %.0f Gbps recirculation budget remains",
			down.WasLoopback, down.RemainingLoopbackGbps),
	})
	if err := r.repoint(down.AffectedChains, port, rep); err != nil {
		return err
	}
	return r.checkCapacity(rep)
}

// portUp restores a recovered port. A chain re-pointed away from it
// stays on its working spare: the reconciler has no declared intent to
// say where the operator wants it.
func (r *Reconciler) portUp(port asic.PortID, rep *ReconcileReport) error {
	up, err := r.Dep.HandlePortUp(port)
	if err != nil {
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCRecovered, Severity: lint.SevInfo,
			Where: fmt.Sprintf("port %d", port), Message: fmt.Sprintf("ignored: %v", err),
		})
		return nil
	}
	rep.Actions = append(rep.Actions, fmt.Sprintf("port %d up: restored (loopback=%v)", port, up.RestoredLoopback))
	rep.Degradation.Add(lint.Finding{
		Rule: RuleRCRecovered, Severity: lint.SevInfo,
		Where:   fmt.Sprintf("port %d", port),
		Message: fmt.Sprintf("port recovered; %.0f Gbps recirculation budget", up.RemainingLoopbackGbps),
	})
	return nil
}

// repoint redirects chains whose static exit port died to the
// lowest-numbered healthy port of their exit pipeline, swapping the
// recomposed programs onto the switch.
func (r *Reconciler) repoint(pathIDs []uint16, deadPort asic.PortID, rep *ReconcileReport) error {
	if len(pathIDs) == 0 {
		return nil
	}
	d := r.Dep
	affected := make(map[uint16]bool, len(pathIDs))
	for _, id := range pathIDs {
		affected[id] = true
	}
	chains := append([]route.Chain(nil), d.Config.Chains...)
	moved := false
	for i, c := range chains {
		if !affected[c.PathID] {
			continue
		}
		replacement, ok := r.healthyExitPort(c.ExitPipeline, deadPort)
		if !ok {
			rep.Degradation.Add(lint.Finding{
				Rule: RuleRCBlackhole, Severity: lint.SevError,
				Where:   fmt.Sprintf("chain %d", c.PathID),
				Message: fmt.Sprintf("static exit port %d died and pipeline %d has no healthy replacement", deadPort, c.ExitPipeline),
				Fix:     "restore a port or move the chain's exit pipeline",
			})
			continue
		}
		chains[i].StaticExitPort = replacement
		rep.Repointed[c.PathID] = replacement
		moved = true
	}
	if !moved {
		return nil
	}
	if err := d.Reconfigure(chains); err != nil {
		return fmt.Errorf("core: re-pointing chains after port %d failure: %w", deadPort, err)
	}
	ids := make([]int, 0, len(rep.Repointed))
	for id := range rep.Repointed {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		port := rep.Repointed[uint16(id)]
		rep.Actions = append(rep.Actions, fmt.Sprintf("chain %d re-pointed to port %d", id, port))
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCRepoint, Severity: lint.SevWarn,
			Where:   fmt.Sprintf("chain %d", id),
			Message: fmt.Sprintf("static exit moved from dead port %d to port %d", deadPort, port),
		})
	}
	return nil
}

// healthyExitPort picks the lowest-numbered usable exit port of a
// pipeline: administratively up, not in loopback, not dead, not the
// CPU/recirc port, and not the port that just failed.
func (r *Reconciler) healthyExitPort(pipeline int, avoid asic.PortID) (asic.PortID, bool) {
	d := r.Dep
	prof := d.Config.Prof
	base := pipeline * prof.PortsPerPipeline
	for p := base; p < base+prof.PortsPerPipeline; p++ {
		port := asic.PortID(p)
		// Port 0 is Chain.StaticExitPort's "no static exit" sentinel —
		// re-pointing there would silently disable the direct exit.
		if port == 0 || port == avoid {
			continue
		}
		if _, gone := d.dead[port]; gone {
			continue
		}
		if !d.Switch.PortIsUp(port) {
			continue
		}
		if d.Switch.LoopbackModeOf(port) != asic.LoopbackOff {
			continue
		}
		return port, true
	}
	return 0, false
}
