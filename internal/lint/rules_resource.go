package lint

import (
	"fmt"

	"dejavu/internal/compiler"
	"dejavu/internal/mau"
)

// stageBudgetRule (DV001) checks that every composed pipelet program
// fits the profile's per-pipelet MAU stage budget — the failure mode
// §3.2 warns about for sequential composition ("which may fail if the
// pipelet does not have enough stages"). The check runs the same stage
// allocator a deployment runs, so a clean lint pass guarantees the
// compile step cannot fail on stage exhaustion. Inside a staged build
// it reads the allocation stage's own plan (Target.Plans).
type stageBudgetRule struct{}

func (stageBudgetRule) ID() string    { return RuleStageBudget }
func (stageBudgetRule) Title() string { return "per-pipelet stage-budget overflow" }

func (stageBudgetRule) Check(t *Target, r *Report) {
	budget := t.Prof.StagesPerPipelet
	for _, pl := range t.Pipelets() {
		block := t.Blocks[pl]
		if block == nil {
			continue
		}
		plan, err := t.planFor(pl, block)
		if err != nil {
			// Distinguish "needs more stages" from structural failures:
			// re-allocate with an unlimited budget to learn the true
			// demand when possible.
			msg := fmt.Sprintf("program does not fit the %d-stage budget: %v", budget, err)
			fix := "move an NF to another pipelet or switch the pipelet to parallel composition"
			if min, merr := compiler.MinStages(block); merr == nil {
				msg = fmt.Sprintf("program needs %d MAU stages but the pipelet has %d", min, budget)
			}
			r.Add(Finding{
				Rule:     RuleStageBudget,
				Severity: SevError,
				Where:    pl.String(),
				Message:  msg,
				Fix:      fix,
			})
			continue
		}
		if used := plan.StagesUsed(); used == budget {
			r.Add(Finding{
				Rule:     RuleStageBudget,
				Severity: SevWarn,
				Where:    pl.String(),
				Message:  fmt.Sprintf("program uses all %d MAU stages; any NF growth will overflow the pipelet", budget),
				Fix:      "leave headroom by rebalancing NFs across pipelets",
			})
		}
	}
}

// tableDepsRule (DV002) inspects each pipelet's table dependency graph:
// a pair of tables that depend on each other in both directions (the
// same tables applied at multiple program points with conflicting
// orders) cannot be placed by a stage allocator, and a body whose
// gateway conditions exceed the pipelet's aggregate gateway capacity
// cannot be predicated on RMT hardware.
type tableDepsRule struct{}

func (tableDepsRule) ID() string    { return RuleTableDeps }
func (tableDepsRule) Title() string { return "table dependency cycles and gateway overflow" }

func (tableDepsRule) Check(t *Target, r *Report) {
	gatewayCap := mau.StageCapacity().Gateways * t.Prof.StagesPerPipelet
	for _, pl := range t.Pipelets() {
		block := t.Blocks[pl]
		if block == nil {
			continue
		}
		deps, err := t.depsFor(pl, block)
		if err != nil {
			r.Add(Finding{
				Rule:     RuleTableDeps,
				Severity: SevError,
				Where:    pl.String(),
				Message:  fmt.Sprintf("dependency analysis failed: %v", err),
				Fix:      "fix the control block body so every applied table is declared",
			})
			continue
		}
		forward := make(map[[2]string]bool, len(deps))
		for _, d := range deps {
			forward[[2]string{d.From, d.To}] = true
		}
		for _, d := range deps {
			if d.From < d.To && forward[[2]string{d.To, d.From}] {
				r.Add(Finding{
					Rule:     RuleTableDeps,
					Severity: SevError,
					Where:    pl.String(),
					Message: fmt.Sprintf("tables %s and %s depend on each other in both directions; no stage order satisfies both",
						d.From, d.To),
					Fix: "restructure the apply body so the tables touch disjoint fields or run in one order",
				})
			}
		}
		if gw := block.GatewayCount(); gw > gatewayCap {
			r.Add(Finding{
				Rule:     RuleTableDeps,
				Severity: SevError,
				Where:    pl.String(),
				Message: fmt.Sprintf("%d gateway conditions exceed the pipelet's capacity of %d (%d stages × %d)",
					gw, gatewayCap, t.Prof.StagesPerPipelet, mau.StageCapacity().Gateways),
				Fix: "reduce branching in NF apply bodies or spread NFs over more pipelets",
			})
		} else if gw*10 > gatewayCap*8 {
			r.Add(Finding{
				Rule:     RuleTableDeps,
				Severity: SevWarn,
				Where:    pl.String(),
				Message:  fmt.Sprintf("%d gateway conditions use over 80%% of the pipelet's capacity of %d", gw, gatewayCap),
				Fix:      "reduce branching in NF apply bodies before the pipelet fills up",
			})
		}
	}
}
