// Package lint statically verifies composed Dejavu deployments before
// they ever touch a switch. The paper's central claim is that a
// service chain either fits the Tofino pipeline or it does not: stage
// budgets (§3.2), ingress-only recirculation decisions (§3.3–§3.4)
// and parser-merge validity (§3) are all compile-time properties. The
// runtime model (internal/asic) discovers some violations late and
// others — a branching table with an unreachable (service path ID,
// service index) entry — not at all: traffic is silently punted or
// black-holed. This package makes every such property a named,
// testable rule over the composed IR, in the spirit of the static
// checks P4's own toolchain runs over its IR (Bosshart et al.) and of
// the ahead-of-time SFC feasibility results of Sallam et al.
//
// Each rule emits structured findings (rule ID, severity, location,
// message, suggested fix) into a Report. Rule IDs are stable: DV001
// through DV009; see the rules_*.go files and the "Static
// verification" section of DESIGN.md for the catalogue.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/compose"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/route"
)

// Rule IDs, stable across releases.
const (
	RuleStageBudget   = "DV001" // per-pipelet stage-budget overflow
	RuleTableDeps     = "DV002" // dependency cycles and gateway overflow
	RuleContextDefUse = "DV003" // SFC context def-use analysis
	RuleParserMerge   = "DV004" // generic-parser merge ambiguity
	RuleRecircLegal   = "DV005" // recirculation/resubmission legality
	RuleBranching     = "DV006" // branching completeness and termination
	RulePlacement     = "DV007" // placement consistency
	RuleChainShape    = "DV008" // chain structure sanity
	RuleWriteSet      = "DV009" // reconfiguration write-set placement
)

// Target is the composed deployment state the rules analyze. All
// fields derive from a compose.Composer; Blocks may be partial when
// some pipelets failed to compose (pipeline.Build reports those as
// DV002 findings).
type Target struct {
	Prof      asic.Profile
	Chains    []route.Chain
	Placement *route.Placement
	NFs       nf.List
	Branching *route.Branching
	Blocks    map[asic.PipeletID]*p4.ControlBlock
	// Parser is the merged generic parser, whose unreachable vertices
	// DV004 reports; the merge's conflicts are the parser-merge stage's
	// to report (ParserFindings).
	Parser *p4.ParserGraph
	// Enter is the pipeline receiving external traffic, the one the
	// build's routing stage plans from (pipeline.Inputs.Enter).
	Enter int
	// Plans holds, per pipelet, the stage allocation of Blocks[pl] at
	// Prof.StagesPerPipelet together with the dependency graph it was
	// allocated from (compiler.Plan.Deps) — what DV001 and DV002 read.
	// pipeline.Build supplies its allocation stage's plans; a block
	// without one (including one the stage could not allocate) is
	// allocated by the first rule that asks (planFor) and the result is
	// kept here for the rules that follow.
	Plans map[asic.PipeletID]*compiler.Plan
	// allocErr remembers why a block has no plan.
	allocErr map[asic.PipeletID]error
}

// planFor returns the pipelet's stage allocation, running the allocator
// at most once per block per target.
func (t *Target) planFor(pl asic.PipeletID, block *p4.ControlBlock) (*compiler.Plan, error) {
	if plan := t.Plans[pl]; plan != nil {
		return plan, nil
	}
	if err := t.allocErr[pl]; err != nil {
		return nil, err
	}
	plan, err := compiler.Allocate(block, t.Prof.StagesPerPipelet)
	if err != nil {
		if t.allocErr == nil {
			t.allocErr = make(map[asic.PipeletID]error)
		}
		t.allocErr[pl] = err
		return nil, err
	}
	if t.Plans == nil {
		t.Plans = make(map[asic.PipeletID]*compiler.Plan)
	}
	t.Plans[pl] = plan
	return plan, nil
}

// depsFor returns the block's table dependency graph: the one its plan
// was allocated from, or, for a block that does not allocate (DV001
// reports why), a derivation of its own.
func (t *Target) depsFor(pl asic.PipeletID, block *p4.ControlBlock) ([]p4.Dep, error) {
	if plan, _ := t.planFor(pl, block); plan != nil {
		return plan.Deps, nil
	}
	return block.Deps()
}

// Pipelets returns the profile's pipelet IDs in deterministic order
// (ingress 0, egress 0, ingress 1, ...).
func (t *Target) Pipelets() []asic.PipeletID {
	out := make([]asic.PipeletID, 0, 2*t.Prof.Pipelines)
	for pipe := 0; pipe < t.Prof.Pipelines; pipe++ {
		out = append(out,
			asic.PipeletID{Pipeline: pipe, Dir: asic.Ingress},
			asic.PipeletID{Pipeline: pipe, Dir: asic.Egress})
	}
	return out
}

// Rule is one static check over a composed deployment.
type Rule interface {
	// ID returns the stable rule identifier (e.g. "DV001").
	ID() string
	// Title is a one-line description for reports and docs.
	Title() string
	// Check appends findings about the target to the report.
	Check(t *Target, r *Report)
}

// Rules returns the default rule set in ID order.
func Rules() []Rule {
	return []Rule{
		stageBudgetRule{},
		tableDepsRule{},
		contextDefUseRule{},
		parserMergeRule{},
		recircLegalRule{},
		branchingRule{},
		placementRule{},
		chainShapeRule{},
	}
}

// BlockRules returns the rules whose findings depend only on a single
// pipelet's composed control block (plus the static profile): DV001
// and DV002. The incremental build pipeline runs these per pipelet and
// caches their findings by the block's content hash, so only rebuilt
// pipelets are re-analyzed.
func BlockRules() []Rule {
	return []Rule{stageBudgetRule{}, tableDepsRule{}}
}

// GlobalRules returns the rules that read cross-pipelet routing state
// (chains, placement, branching): everything except BlockRules and
// DV004, whose findings the build pipeline's parser-merge stage renders
// (ParserFindings) and keeps with the generic parser. Their inputs
// change with every chain edit, so the incremental build pipeline runs
// them on every rebuild and caches only the block and parser findings.
func GlobalRules() []Rule {
	return []Rule{
		contextDefUseRule{},
		recircLegalRule{},
		branchingRule{},
		placementRule{},
		chainShapeRule{},
	}
}

// AnalyzeTarget runs a specific rule set over a prepared target and
// returns the sorted report. Targets with a partial Blocks map are
// fine: block-scoped rules skip missing blocks.
func AnalyzeTarget(t *Target, rules []Rule) *Report {
	r := NewReport()
	for _, rule := range rules {
		rule.Check(t, r)
	}
	r.Sort()
	return r
}

// AnalyzeDeployment runs the default rule set over an already-built
// deployment, reusing its composed blocks and generic parser; enter is
// the pipeline its external traffic enters on.
func AnalyzeDeployment(d *compose.Deployment, enter int) *Report {
	c := d.Composer
	return AnalyzeTarget(&Target{
		Prof:      c.Prof,
		Chains:    c.Chains,
		Placement: c.Placement,
		NFs:       c.NFs,
		Branching: c.Branching,
		Blocks:    d.Blocks,
		Parser:    d.Parser,
		Enter:     enter,
	}, Rules())
}

// GateError renders the report's error-severity findings as a one-line
// gate error, or nil when the report has none. The build pipeline uses
// it, on a report assembled from cached and fresh findings, to refuse
// a strict build (pipeline.Inputs.Strict) and a build missing an
// artifact.
func (r *Report) GateError() error {
	if !r.HasErrors() {
		return nil
	}
	errs := r.BySeverity(SevError)
	msgs := make([]string, 0, len(errs))
	for _, f := range errs {
		msgs = append(msgs, fmt.Sprintf("%s %s: %s", f.Rule, f.Where, f.Message))
	}
	sort.Strings(msgs)
	return fmt.Errorf("lint: %d error finding(s): %s", len(errs), joinMax(msgs, 3))
}

// joinMax joins up to n items, eliding the rest.
func joinMax(items []string, n int) string {
	if len(items) <= n {
		return strings.Join(items, "; ")
	}
	return fmt.Sprintf("%s; and %d more", strings.Join(items[:n], "; "), len(items)-n)
}
