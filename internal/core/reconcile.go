package core

import (
	"fmt"
	"slices"

	"dejavu/internal/asic"
	"dejavu/internal/lint"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
)

// Reconciler rule IDs, in the internal/lint findings format so chaos
// reports and static-verification reports read the same way.
const (
	// RuleRCPortDown: a front-panel port failed.
	RuleRCPortDown = "RC001"
	// RuleRCRepoint: a chain's static exit was re-pointed to a live port.
	RuleRCRepoint = "RC002"
	// RuleRCCapacity: sustainable capacity is below offered load, or a
	// recirculation queue overloaded.
	RuleRCCapacity = "RC003"
	// RuleRCBlackhole: a chain has no healthy exit — operator action
	// required. The only error-severity degradation.
	RuleRCBlackhole = "RC004"
	// RuleRCRecovered: a port (and its roles) came back.
	RuleRCRecovered = "RC005"
	// RuleRCReplaced: placement was re-optimized to claw back capacity.
	RuleRCReplaced = "RC006"
)

// ReconcileReport is the structured outcome of one Reconcile round:
// what the round changed, and the deployment's health in the lint
// findings format.
type ReconcileReport struct {
	// Converged reports that the port health had not changed since the
	// last round and nothing was reprogrammed.
	Converged bool
	// Actions lists what was changed, in execution order, as
	// deterministic human-readable lines.
	Actions []string
	// Degradation collects findings about the deployment's health;
	// error severity means the round could not self-heal.
	Degradation *lint.Report
	// Repointed maps the chains this round moved off their declared
	// static exit to the port they now exit through.
	Repointed map[uint16]asic.PortID
	// Replaced reports whether placement was re-optimized.
	Replaced bool
}

// Reconcile runs one self-healing round over the switch's own port
// state, like the fabric's round: it reads every front-panel port's
// admin state and derives the desired state from the declared Config —
// the declared loopback ports that are up carry recirculation, each
// chain exits through its declared port if that is up and otherwise
// through the lowest healthy port of its exit pipeline, and when the
// sustainable load is below offeredGbps (zero disables the check) the
// greedy optimizer's placement is taken if it is strictly cheaper. It
// stages and commits one build only if the installed chains or
// placement differ, so a second round on unchanged health writes
// nothing; a port that went down and came back between two rounds
// changes nothing either. RC001 and RC005 report port changes against
// the health the last round adopted, RC002 and RC006 what the round
// changed, and RC003 and RC004 the degradation it finds.
func (d *Deployment) Reconcile(offeredGbps float64) (*ReconcileReport, error) {
	rep := &ReconcileReport{Degradation: lint.NewReport(), Repointed: make(map[uint16]asic.PortID)}
	prof := d.Config.Prof
	var down []asic.PortID
	for p := 0; p < prof.TotalPorts(); p++ {
		if !d.Switch.PortIsUp(asic.PortID(p)) {
			down = append(down, asic.PortID(p))
		}
	}
	live, err := publishLoopback(d.Switch, d.Config.LoopbackPorts)
	if err != nil {
		return rep, err
	}
	d.Capacity.TotalPorts, d.Capacity.LoopbackPorts = prof.TotalPorts()-len(down), live
	budget := d.LoopbackGbps()
	for _, p := range down {
		if slices.Contains(d.down, p) {
			continue
		}
		loopback := slices.Contains(d.Config.LoopbackPorts, p)
		sev := lint.SevInfo
		if loopback {
			sev = lint.SevWarn
		}
		rep.Actions = append(rep.Actions, fmt.Sprintf("port %d down: re-budgeted capacity", p))
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCPortDown, Severity: sev, Where: fmt.Sprintf("port %d", p),
			Message: fmt.Sprintf("port failed (loopback=%v): %.0f Gbps recirculation budget remains", loopback, budget),
		})
	}
	for _, p := range d.down {
		if slices.Contains(down, p) {
			continue
		}
		rep.Actions = append(rep.Actions, fmt.Sprintf("port %d up: restored (loopback=%v)", p, slices.Contains(d.Config.LoopbackPorts, p)))
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCRecovered, Severity: lint.SevInfo, Where: fmt.Sprintf("port %d", p),
			Message: fmt.Sprintf("port recovered; %.0f Gbps recirculation budget", budget),
		})
	}

	var placement *route.Placement // nil: keep the installed one
	if sustainable := d.sustainableGbps(); offeredGbps > 0 && sustainable < offeredGbps {
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCCapacity, Severity: lint.SevWarn, Where: "capacity",
			Message: fmt.Sprintf("sustainable load %.0f Gbps below offered %.0f Gbps", sustainable, offeredGbps),
			Fix:     "re-run placement or shed load",
		})
		cfg := d.Config
		cfg.Optimizer = OptGreedy // fast enough for a repair loop
		greedy, cost, err := pipeline.ResolvePlacement(buildInputs(cfg, nil))
		switch {
		case err != nil:
			rep.Degradation.Add(lint.Finding{
				Rule: RuleRCCapacity, Severity: lint.SevWarn, Where: "placement",
				Message: fmt.Sprintf("re-placement infeasible: %v", err),
			})
		case cost.Less(d.Cost):
			placement, rep.Replaced = greedy, true
			msg := fmt.Sprintf("weighted recircs %.2f -> %.2f", d.Cost.WeightedRecircs, cost.WeightedRecircs)
			rep.Actions = append(rep.Actions, "re-placed NFs: "+msg)
			rep.Degradation.Add(lint.Finding{
				Rule: RuleRCReplaced, Severity: lint.SevInfo, Where: "placement",
				Message: "placement re-optimized, " + msg,
			})
		default:
			rep.Degradation.Add(lint.Finding{
				Rule: RuleRCCapacity, Severity: lint.SevWarn, Where: "capacity",
				Message: "placement already minimal; deployment stays degraded",
				Fix:     "restore failed loopback ports or add more",
			})
		}
	}

	chains, blackholed := d.exits(d.Config)
	for _, c := range blackholed {
		rep.Degradation.Add(lint.Finding{
			Rule: RuleRCBlackhole, Severity: lint.SevError, Where: fmt.Sprintf("chain %d", c.PathID),
			Message: fmt.Sprintf("static exit port %d is down and pipeline %d has no healthy replacement", c.StaticExitPort, c.ExitPipeline),
			Fix:     "restore a port or move the chain's exit pipeline",
		})
	}
	cur := d.installed.Res
	changed := placement != nil || !route.EqualChains(cur.Composer.Chains, chains)
	if changed {
		if err := d.apply(d.keep(d.Config.Chains), placement); err != nil {
			return rep, fmt.Errorf("core: reconcile: %w", err)
		}
		for i, c := range chains {
			was := staticExitOf(cur.Composer.Chains, c.PathID)
			switch declared := d.Config.Chains[i].StaticExitPort; {
			case c.StaticExitPort == was:
			case c.StaticExitPort != declared:
				rep.Repointed[c.PathID] = c.StaticExitPort
				rep.Actions = append(rep.Actions, fmt.Sprintf("chain %d re-pointed to port %d", c.PathID, c.StaticExitPort))
				rep.Degradation.Add(lint.Finding{
					Rule: RuleRCRepoint, Severity: lint.SevWarn, Where: fmt.Sprintf("chain %d", c.PathID),
					Message: fmt.Sprintf("static exit moved from dead port %d to port %d", declared, c.StaticExitPort),
				})
			default:
				rep.Actions = append(rep.Actions, fmt.Sprintf("chain %d back on its declared exit port %d", c.PathID, declared))
			}
		}
	}
	rep.Converged = !changed && slices.Equal(down, d.down)
	d.down = down
	rep.Degradation.Sort()
	return rep, nil
}

// sustainableGbps is the offered load the loopback budget sustains
// losslessly at the current weighted recirculation count.
func (d *Deployment) sustainableGbps() float64 {
	k := d.WeightedRecirculations()
	if k <= 0 {
		return d.Capacity.ExternalGbps()
	}
	return d.LoopbackGbps() / k
}

// staticExitOf returns a chain's static exit port in a chain list, 0
// when it has none or is not listed.
func staticExitOf(chains []route.Chain, pathID uint16) asic.PortID {
	for _, c := range chains {
		if c.PathID == pathID {
			return c.StaticExitPort
		}
	}
	return 0
}
