package lint

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
	"dejavu/internal/route"
)

// stubNF is a minimal NF for building known-bad deployments.
type stubNF struct {
	name   string
	block  *p4.ControlBlock
	parser *p4.ParserGraph
	reads  []uint8
	writes []uint8
	stamps map[uint16]uint8
}

func (s *stubNF) Name() string            { return s.name }
func (s *stubNF) Block() *p4.ControlBlock { return s.block }
func (s *stubNF) Parser() *p4.ParserGraph { return s.parser }
func (s *stubNF) Execute(*packet.Parsed)  {}
func (s *stubNF) ContextReads() []uint8   { return s.reads }
func (s *stubNF) ContextWrites() []uint8  { return s.writes }

// stampStub additionally implements nf.PathStamper.
type stampStub struct{ stubNF }

func (s *stampStub) StampedPaths() map[uint16]uint8 { return s.stamps }

var (
	_ nf.NF          = (*stubNF)(nil)
	_ nf.ContextUser = (*stubNF)(nil)
	_ nf.PathStamper = (*stampStub)(nil)
)

// ethStart is the shared parser root.
var ethStart = p4.Vertex{Type: "ethernet", Offset: 0}

// trivialParser parses Ethernet and accepts.
func trivialParser() *p4.ParserGraph {
	g := p4.NewParserGraph(ethStart)
	g.MustEdge(p4.Transition{From: ethStart, Default: true, To: p4.Accept()})
	return g
}

// trivialBlock is a one-table no-op control block.
func trivialBlock(name string) *p4.ControlBlock {
	tbl := &p4.Table{
		Name:    name + "_t",
		Actions: []*p4.Action{{Name: "nop", Ops: []p4.Op{{Kind: p4.OpNoop}}}},
		Size:    1,
	}
	return &p4.ControlBlock{Name: name, Tables: []*p4.Table{tbl}, Body: []p4.Stmt{p4.ApplyStmt{Table: tbl.Name}}}
}

func newStub(name string) *stubNF {
	return &stubNF{name: name, block: trivialBlock(name), parser: trivialParser()}
}

// baseTarget returns an empty analysis target on the Wedge-100B profile.
func baseTarget() *Target {
	return &Target{
		Prof:   asic.Wedge100B(),
		Blocks: make(map[asic.PipeletID]*p4.ControlBlock),
	}
}

// chainBlock builds a control block of n tables where each table
// matches a field the previous one writes, forcing n separate stages.
func chainBlock(n int) *p4.ControlBlock {
	cb := &p4.ControlBlock{Name: "chain"}
	for i := 0; i < n; i++ {
		tbl := &p4.Table{
			Name: fmt.Sprintf("t%d", i),
			Actions: []*p4.Action{{
				Name: "setf",
				Ops:  []p4.Op{{Kind: p4.OpSetField, Dst: p4.FieldRef(fmt.Sprintf("meta.f%d", i))}},
			}},
			Size: 1,
		}
		if i > 0 {
			tbl.Keys = []p4.Key{{Field: p4.FieldRef(fmt.Sprintf("meta.f%d", i-1)), Kind: p4.MatchExact, Bits: 8}}
		}
		cb.Tables = append(cb.Tables, tbl)
		cb.Body = append(cb.Body, p4.ApplyStmt{Table: tbl.Name})
	}
	return cb
}

func findingsFor(r *Report, rule string, sev Severity) []Finding {
	var out []Finding
	for _, f := range r.ByRule(rule) {
		if f.Severity == sev {
			out = append(out, f)
		}
	}
	return out
}

func wantFinding(t *testing.T, r *Report, rule string, sev Severity, substr string) {
	t.Helper()
	for _, f := range findingsFor(r, rule, sev) {
		if strings.Contains(f.Message, substr) {
			return
		}
	}
	t.Errorf("missing %s %s finding containing %q; report:\n%s", rule, sev, substr, r)
}

func TestStageBudgetOverflow(t *testing.T) {
	tg := baseTarget()
	// 2 more dependent tables than the pipelet has stages.
	tg.Blocks[asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}] = chainBlock(tg.Prof.StagesPerPipelet + 2)
	r := NewReport()
	stageBudgetRule{}.Check(tg, r)
	wantFinding(t, r, RuleStageBudget, SevError, "MAU stages")

	// Exactly at the budget: a warning, not an error.
	tg2 := baseTarget()
	tg2.Blocks[asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}] = chainBlock(tg2.Prof.StagesPerPipelet)
	r2 := NewReport()
	stageBudgetRule{}.Check(tg2, r2)
	if len(findingsFor(r2, RuleStageBudget, SevError)) != 0 {
		t.Errorf("at-budget block reported as error:\n%s", r2)
	}
	wantFinding(t, r2, RuleStageBudget, SevWarn, "all")
}

func TestTableDependencyCycle(t *testing.T) {
	cb := cycleBlock()
	tg := baseTarget()
	tg.Blocks[asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}] = cb
	r := NewReport()
	tableDepsRule{}.Check(tg, r)
	wantFinding(t, r, RuleTableDeps, SevError, "depend on each other in both directions")
}

func TestGatewayOverflow(t *testing.T) {
	cb := trivialBlock("gw")
	cap := 16 * asic.Wedge100B().StagesPerPipelet
	for i := 0; i <= cap; i++ {
		cb.Body = append(cb.Body, p4.IfStmt{
			Cond: p4.Cond{Kind: p4.CondFieldEq, Field: "meta.class_id", Value: uint64(i)},
			Then: []p4.Stmt{p4.ApplyStmt{Table: "gw_t"}},
		})
	}
	tg := baseTarget()
	tg.Blocks[asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}] = cb
	r := NewReport()
	tableDepsRule{}.Check(tg, r)
	wantFinding(t, r, RuleTableDeps, SevError, "gateway conditions exceed")
}

func TestContextDefUse(t *testing.T) {
	rdr := newStub("rdr")
	rdr.reads = []uint8{nsh.KeyTenantID}
	wtr := newStub("wtr")
	wtr.writes = []uint8{nsh.KeyVNI}
	tg := baseTarget()
	tg.NFs = nf.List{rdr, wtr}
	tg.Chains = []route.Chain{{PathID: 10, NFs: []string{"rdr", "wtr"}}}
	r := NewReport()
	contextDefUseRule{}.Check(tg, r)
	wantFinding(t, r, RuleContextDefUse, SevWarn, "no upstream NF of the chain writes")
	wantFinding(t, r, RuleContextDefUse, SevInfo, "never read")

	// The same pair in writer-then-reader order is clean.
	rdr2 := newStub("rdr")
	rdr2.reads = []uint8{nsh.KeyVNI}
	tg2 := baseTarget()
	tg2.NFs = nf.List{wtr, rdr2}
	tg2.Chains = []route.Chain{{PathID: 10, NFs: []string{"wtr", "rdr"}}}
	r2 := NewReport()
	contextDefUseRule{}.Check(tg2, r2)
	if len(r2.Findings) != 0 {
		t.Errorf("clean def-use chain produced findings:\n%s", r2)
	}
}

func TestParserMergeAmbiguity(t *testing.T) {
	a := newStub("a")
	a.parser = p4.NewParserGraph(ethStart)
	a.parser.MustEdge(p4.Transition{
		From: ethStart, Select: "ethernet.ether_type", Value: 0x0800,
		To: p4.Vertex{Type: "ipv4", Offset: 14},
	})
	b := newStub("b")
	b.parser = p4.NewParserGraph(ethStart)
	b.parser.MustEdge(p4.Transition{
		From: ethStart, Select: "ethernet.ether_type", Value: 0x0800,
		To: p4.Vertex{Type: "arp", Offset: 14},
	})
	merged, err := p4.MergeParsers(p4.NewGlobalIDTable(), a.parser, b.parser)
	conflicts, _ := err.(*p4.MergeError)
	r := &Report{Findings: ParserFindings([]string{"a", "b"}, merged, conflicts)}
	wantFinding(t, r, RuleParserMerge, SevError, `select ethernet.ether_type=0x800 leads to arp@14 here but to ipv4@14 in NF "a"`)
	if got := r.ByRule(RuleParserMerge)[0].Where; got != "b" {
		t.Errorf("ambiguity reported at %q, want the fragment it came from, b", got)
	}
}

// TestParserMergeNamesFirstDeadEnd: when the merged parser has two
// vertices that cannot reach accept, DV004 names the first by offset
// then header type, the same on every run.
func TestParserMergeNamesFirstDeadEnd(t *testing.T) {
	const want = "parser merge failed: p4: parser vertex arp@14 cannot reach accept"
	for i := 0; i < 100; i++ {
		a := p4.NewParserGraph(ethStart)
		a.MustEdge(p4.Transition{From: ethStart, Select: "ethernet.ether_type", Value: 0x0800, To: p4.Vertex{Type: "ipv4", Offset: 14}})
		a.MustEdge(p4.Transition{From: ethStart, Default: true, To: p4.Accept()})
		b := p4.NewParserGraph(ethStart)
		b.MustEdge(p4.Transition{From: ethStart, Select: "ethernet.ether_type", Value: 0x0806, To: p4.Vertex{Type: "arp", Offset: 14}})
		merged, err := p4.MergeParsers(p4.NewGlobalIDTable(), a, b)
		conflicts, _ := err.(*p4.MergeError)
		fs := ParserFindings([]string{"a", "b"}, merged, conflicts)
		if len(fs) != 1 || fs[0].Message != want {
			t.Fatalf("run %d: DV004 findings %+v, want one saying %q", i, fs, want)
		}
	}
}

func TestParserUnreachableVertex(t *testing.T) {
	a := newStub("a")
	a.parser.AddVertex(p4.Vertex{Type: "vxlan", Offset: 50}) // orphan state
	tg := baseTarget()
	tg.Parser = a.parser
	r := NewReport()
	parserMergeRule{}.Check(tg, r)
	wantFinding(t, r, RuleParserMerge, SevWarn, "unreachable")
}

func TestRecircResubmitInEgress(t *testing.T) {
	cb := trivialBlock("bad")
	cb.Tables[0].Actions = append(cb.Tables[0].Actions, &p4.Action{
		Name: "resub",
		Ops:  []p4.Op{{Kind: p4.OpSetField, Dst: "meta.resubmit"}},
	})
	tg := baseTarget()
	tg.Blocks[asic.PipeletID{Pipeline: 0, Dir: asic.Egress}] = cb
	r := NewReport()
	recircLegalRule{}.Check(tg, r)
	wantFinding(t, r, RuleRecircLegal, SevError, "resubmission exists only after ingress")
}

func TestRecircCrossesPipeline(t *testing.T) {
	chains := []route.Chain{{PathID: 10, NFs: []string{"x", "y"}, ExitPipeline: 0}}
	p := route.NewPlacement()
	p.Assign("x", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	p.Assign("y", asic.PipeletID{Pipeline: 1, Dir: asic.Ingress})
	br, err := route.NewBranching(chains, p)
	if err != nil {
		t.Fatal(err)
	}
	// Misconfigured loopback pool: always bounce through pipeline 0.
	br.SetLoopbackChooser(func(int) asic.PortID { return asic.RecircPort(0) })

	tg := baseTarget()
	tg.Chains = chains
	tg.Placement = p
	tg.Branching = br
	r := NewReport()
	recircLegalRule{}.Check(tg, r)
	wantFinding(t, r, RuleRecircLegal, SevError, "cannot cross pipelines")
}

func TestBranchingStampedPaths(t *testing.T) {
	cls := &stampStub{stubNF: *newStub("cls")}
	cls.stamps = map[uint16]uint8{
		99: 1, // no such chain
		10: 5, // chain 10 has only 1 NF
	}
	tg := baseTarget()
	tg.NFs = nf.List{cls}
	tg.Chains = []route.Chain{
		{PathID: 10, NFs: []string{"cls"}},
		{PathID: 20, NFs: []string{"cls"}}, // never stamped
	}
	r := NewReport()
	branchingRule{}.Check(tg, r)
	wantFinding(t, r, RuleBranching, SevError, "black-holed")
	wantFinding(t, r, RuleBranching, SevError, "no entry for the pair")
	wantFinding(t, r, RuleBranching, SevWarn, "can never carry traffic")
}

func TestBranchingZeroInitialIndex(t *testing.T) {
	cls := &stampStub{stubNF: *newStub("cls")}
	cls.stamps = map[uint16]uint8{10: 0}
	tg := baseTarget()
	tg.NFs = nf.List{cls}
	tg.Chains = []route.Chain{{PathID: 10, NFs: []string{"cls"}}}
	r := NewReport()
	branchingRule{}.Check(tg, r)
	wantFinding(t, r, RuleBranching, SevError, "initial index 0")
}

func TestPlacementConsistency(t *testing.T) {
	a := newStub("a")
	p := route.NewPlacement()
	p.Assign("a", asic.PipeletID{Pipeline: 5, Dir: asic.Ingress}) // no pipeline 5
	p.Assign("orphan", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	tg := baseTarget()
	tg.NFs = nf.List{a}
	tg.Chains = []route.Chain{{PathID: 10, NFs: []string{"a", "ghost"}}}
	tg.Placement = p
	r := NewReport()
	placementRule{}.Check(tg, r)
	wantFinding(t, r, RulePlacement, SevError, "absent from the placement")
	wantFinding(t, r, RulePlacement, SevError, "only 2 pipelines")
	wantFinding(t, r, RulePlacement, SevInfo, "no chain references it")
}

func TestPlacementMissingImplementation(t *testing.T) {
	p := route.NewPlacement()
	p.Assign("a", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	tg := baseTarget()
	tg.Chains = []route.Chain{{PathID: 10, NFs: []string{"a"}}}
	tg.Placement = p
	r := NewReport()
	placementRule{}.Check(tg, r)
	wantFinding(t, r, RulePlacement, SevError, "no implementation")
}

func TestChainShape(t *testing.T) {
	tg := baseTarget()
	tg.Chains = []route.Chain{
		// Classifier buried mid-chain, weight 0, static exit port 20 is
		// on pipeline 1 while the chain exits on pipeline 0.
		{PathID: 10, NFs: []string{"fw", "classifier"}, Weight: 0, ExitPipeline: 0, StaticExitPort: 20},
		// Exit pipeline beyond the profile.
		{PathID: 20, NFs: []string{"fw"}, Weight: 1, ExitPipeline: 5},
		// Static exit port that does not exist at all.
		{PathID: 30, NFs: []string{"fw"}, Weight: 1, ExitPipeline: 0, StaticExitPort: 0x900},
		// Structurally invalid: path ID 0 is reserved.
		{PathID: 0, NFs: []string{"fw"}, Weight: 1},
	}
	r := NewReport()
	chainShapeRule{}.Check(tg, r)
	wantFinding(t, r, RuleChainShape, SevWarn, "classifier appears at position 1")
	wantFinding(t, r, RuleChainShape, SevInfo, "weight 0")
	wantFinding(t, r, RuleChainShape, SevError, "direct-exit optimization would misroute")
	wantFinding(t, r, RuleChainShape, SevError, "exit pipeline 5 does not exist")
	wantFinding(t, r, RuleChainShape, SevError, "not a front-panel port")
	wantFinding(t, r, RuleChainShape, SevError, "path ID 0 is reserved")
}

func TestChainShapeNoClassifier(t *testing.T) {
	tg := baseTarget()
	tg.Chains = []route.Chain{{PathID: 10, NFs: []string{"fw"}, Weight: 1}}
	r := NewReport()
	chainShapeRule{}.Check(tg, r)
	wantFinding(t, r, RuleChainShape, SevWarn, "no chain contains the classifier")
}

func TestReportSortAndJSON(t *testing.T) {
	r := NewReport()
	r.Add(Finding{Rule: "DV008", Severity: SevInfo, Where: "z", Message: "c"})
	r.Add(Finding{Rule: "DV002", Severity: SevError, Where: "b", Message: "a"})
	r.Add(Finding{Rule: "DV001", Severity: SevError, Where: "a", Message: "b"})
	r.Add(Finding{Rule: "DV005", Severity: SevWarn, Where: "m", Message: "d", Fix: "do less"})
	r.Sort()
	order := make([]string, len(r.Findings))
	for i, f := range r.Findings {
		order[i] = f.Rule
	}
	want := []string{"DV001", "DV002", "DV005", "DV008"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sort order = %v, want %v", order, want)
		}
	}
	if r.Errors() != 2 || r.Warnings() != 1 || !r.HasErrors() {
		t.Errorf("counts: errors=%d warnings=%d", r.Errors(), r.Warnings())
	}

	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Findings) != len(r.Findings) {
		t.Fatalf("JSON roundtrip lost findings: %d != %d", len(back.Findings), len(r.Findings))
	}
	if back.Findings[0].Severity != SevError || back.Findings[3].Severity != SevInfo {
		t.Error("severity did not survive the JSON roundtrip")
	}
	if !strings.Contains(r.String(), "(fix: do less)") {
		t.Error("text rendering omits the suggested fix")
	}
}

func TestRuleCatalogue(t *testing.T) {
	rules := Rules()
	if len(rules) != 8 {
		t.Fatalf("expected 8 rules, got %d", len(rules))
	}
	seen := make(map[string]bool)
	for i, rule := range rules {
		id := rule.ID()
		if seen[id] {
			t.Errorf("duplicate rule ID %s", id)
		}
		seen[id] = true
		want := fmt.Sprintf("DV%03d", i+1)
		if id != want {
			t.Errorf("rule %d has ID %s, want %s", i, id, want)
		}
		if rule.Title() == "" {
			t.Errorf("rule %s has no title", id)
		}
	}
	// The incremental build assembles its report from the block rules,
	// the global rules and the parser-merge stage's DV004 findings: every
	// rule must be in exactly one of them.
	subsets := 0
	for _, set := range [][]Rule{BlockRules(), {parserMergeRule{}}, GlobalRules()} {
		for _, rule := range set {
			if !seen[rule.ID()] {
				t.Errorf("rule %s is in two subsets or not in Rules()", rule.ID())
			}
			delete(seen, rule.ID())
			subsets++
		}
	}
	if subsets != len(rules) || len(seen) != 0 {
		t.Errorf("Block, Parser and Global rules hold %d rules, Rules() %d; in no subset: %v", subsets, len(rules), seen)
	}
}
