package lint

import (
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/p4"
)

// cycleBlock is the DV002 fixture: a writes x and reads y, b writes y
// and reads x; applied a, b, a the graph holds a->b and b->a.
func cycleBlock() *p4.ControlBlock {
	mk := func(name string, writes, reads p4.FieldRef) *p4.Table {
		return &p4.Table{
			Name: name,
			Keys: []p4.Key{{Field: reads, Kind: p4.MatchExact, Bits: 8}},
			Actions: []*p4.Action{{
				Name: "setf",
				Ops:  []p4.Op{{Kind: p4.OpSetField, Dst: writes}},
			}},
			Size: 1,
		}
	}
	return &p4.ControlBlock{
		Name:   "cyclic",
		Tables: []*p4.Table{mk("a", "meta.x", "meta.y"), mk("b", "meta.y", "meta.x")},
		Body: []p4.Stmt{
			p4.ApplyStmt{Table: "a"}, p4.ApplyStmt{Table: "b"}, p4.ApplyStmt{Table: "a"},
		},
	}
}

// TestBlockRuleFixturesKeepTheirText pins the exact DV001 overflow and
// DV002 cycle findings, with the plan supplied and with it left to the
// rules.
func TestBlockRuleFixturesKeepTheirText(t *testing.T) {
	pl := asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}
	blockFindings := func(block *p4.ControlBlock, plans map[asic.PipeletID]*compiler.Plan) string {
		tg := baseTarget()
		tg.Blocks[pl] = block
		tg.Plans = plans
		return AnalyzeTarget(tg, BlockRules()).String()
	}

	budget := asic.Wedge100B().StagesPerPipelet
	overflow := blockFindings(chainBlock(budget+2), nil)
	const wantOverflow = "DV001 error [ingress 0] program needs 14 MAU stages but the pipelet has 12 " +
		"(fix: move an NF to another pipelet or switch the pipelet to parallel composition)\n" +
		"1 finding(s): 1 error, 0 warn, 0 info\n"
	if overflow != wantOverflow {
		t.Errorf("DV001 overflow fixture:\n got %q\nwant %q", overflow, wantOverflow)
	}

	cb := cycleBlock()
	plan, err := compiler.Allocate(cb, budget)
	if err != nil {
		t.Fatal(err)
	}
	const wantCycle = "DV002 error [ingress 0] tables a and b depend on each other in both directions; " +
		"no stage order satisfies both (fix: restructure the apply body so the tables touch disjoint fields or run in one order)\n" +
		"1 finding(s): 1 error, 0 warn, 0 info\n"
	for name, plans := range map[string]map[asic.PipeletID]*compiler.Plan{
		"derived": nil, "supplied": {pl: plan},
	} {
		if got := blockFindings(cb, plans); got != wantCycle {
			t.Errorf("DV002 cycle fixture, plan %s:\n got %q\nwant %q", name, got, wantCycle)
		}
	}
}

// TestBlockRulesReadTheSuppliedPlan: given a plan, DV001 and DV002
// report what the plan says and run neither the allocator nor the
// dependency analysis themselves. The plan here contradicts the block
// on purpose — a one-table block cannot fill twelve stages nor hold a
// cycle — so findings that follow the plan cannot have been derived.
func TestBlockRulesReadTheSuppliedPlan(t *testing.T) {
	pl := asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}
	tg := baseTarget()
	tg.Blocks[pl] = trivialBlock("one")
	tg.Plans = map[asic.PipeletID]*compiler.Plan{pl: {
		Block:  tg.Blocks[pl],
		Stages: make([]compiler.StageUsage, tg.Prof.StagesPerPipelet),
		Deps: []p4.Dep{
			{From: "p", To: "q", Kind: p4.DepMatch},
			{From: "q", To: "p", Kind: p4.DepMatch},
		},
	}}
	r := AnalyzeTarget(tg, BlockRules())
	wantFinding(t, r, RuleStageBudget, SevWarn, "uses all 12 MAU stages")
	wantFinding(t, r, RuleTableDeps, SevError, "tables p and q depend on each other")

	// Left alone, the same block is clean and its plan is kept for the
	// next rule: one allocation serves both.
	tg2 := baseTarget()
	tg2.Blocks[pl] = trivialBlock("one")
	if r2 := AnalyzeTarget(tg2, BlockRules()); len(r2.Findings) != 0 {
		t.Errorf("one-table block has findings:\n%s", r2)
	}
	plan := tg2.Plans[pl]
	if plan == nil || plan.StagesUsed() != 1 {
		t.Fatalf("the rules did not keep their allocation: %+v", plan)
	}
	if again, _ := tg2.planFor(pl, tg2.Blocks[pl]); again != plan {
		t.Error("a second request allocated again")
	}
}
