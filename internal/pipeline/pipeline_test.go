package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// scenarioInputs declares a build of the §5 edge-cloud scenario with
// its pinned Fig. 9 placement.
func scenarioInputs(t *testing.T) Inputs {
	t.Helper()
	s := scenario.MustNew()
	return Inputs{
		Prof:      s.Prof,
		Chains:    s.Chains,
		NFs:       s.NFs,
		Enter:     0,
		Placement: s.Placement,
	}
}

// extraChain is the churn case: a fourth path over already-deployed
// NFs.
func extraChain(in Inputs) route.Chain {
	tmpl := in.Chains[0]
	return route.Chain{
		PathID:       99,
		NFs:          append([]string(nil), tmpl.NFs...),
		Weight:       0.1,
		ExitPipeline: tmpl.ExitPipeline,
	}
}

func TestBuildNilCache(t *testing.T) {
	res, err := Build(scenarioInputs(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.CacheHits != 0 {
		t.Errorf("nil cache reported %d hits", res.Info.CacheHits)
	}
	if res.Info.CacheMisses == 0 || len(res.Info.Stages) != 6 {
		t.Errorf("stage accounting off: %+v", res.Info)
	}
	if res.Info.Stage(StageRouting).CacheHit {
		t.Error("nil-cache build did not rebuild routing")
	}
	if res.Program.Len() == 0 {
		t.Error("empty table program")
	}
}

// TestStrictBuildNamesTheRule: a classifier rule stamping a path no
// chain implements (DV006) builds unstrict, and a strict build — the
// one deploy gate, core.Config.StrictLint — refuses it naming the rule,
// from a warm cache too.
func TestStrictBuildNamesTheRule(t *testing.T) {
	s := scenario.MustNew()
	if err := s.Classifier.AddRule(nf.ClassRule{
		DstIP: packet.IP4{192, 0, 2, 1}, DstMask: packet.IP4{255, 255, 255, 255},
		Priority: 5, Path: 99, InitialIndex: 1,
	}); err != nil {
		t.Fatal(err)
	}
	in := Inputs{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Placement: s.Placement}
	cache := NewCache()
	if _, err := Build(in, cache); err != nil {
		t.Fatalf("unstrict build failed: %v", err)
	}
	in.Strict = true
	for _, c := range []*Cache{nil, cache} {
		if _, err := Build(in, c); err == nil {
			t.Fatal("strict build accepted a deployment with DV006 errors")
		} else if !strings.Contains(err.Error(), "DV006") {
			t.Errorf("gate error does not name the rule: %v", err)
		}
	}
}

// TestOverflowReachesLint: a pipelet that does not fit its stage budget
// leaves the build without its plan, and the build goes on to lint:
// unstrict, it is refused naming the DV001 finding, returns the report
// it refused on, and keeps none of the artifacts after the allocation
// stage in the cache.
func TestOverflowReachesLint(t *testing.T) {
	in := scenarioInputs(t)
	in.Placement = route.NewPlacement()
	for _, f := range in.NFs {
		in.Placement.Assign(f.Name(), asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	}
	cache := NewCache()
	res, err := Build(in, cache)
	if err == nil || !strings.Contains(err.Error(), "DV001 ingress 0: program needs") {
		t.Fatalf("overflowing build: error %v, want the DV001 refusal", err)
	}
	if res == nil || res.Dep != nil || len(res.Lint.ByRule(lint.RuleStageBudget)) == 0 {
		t.Fatalf("overflowing build returned %+v, want its DV001 report and no deployment", res)
	}
	for key := range cache.entries {
		if strings.HasPrefix(key, "lint/") || key == "routing" {
			t.Errorf("the refused build kept %s, stored after the missing plan", key)
		}
	}
}

// TestRebuildSameInputsAllCached: building identical inputs against a
// warm cache recomputes nothing and reproduces the same program.
func TestRebuildSameInputsAllCached(t *testing.T) {
	in := scenarioInputs(t)
	cache := NewCache()
	first, err := Build(in, cache)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Build(in, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range second.Info.Stages {
		if !st.CacheHit {
			t.Errorf("stage %s missed on identical rebuild", st.Name)
		}
	}
	if len(second.ChangedFuncs) != 0 {
		t.Errorf("identical rebuild changed programs: %v", second.ChangedFuncs)
	}
	if !second.Info.Stage(StageRouting).CacheHit {
		t.Error("identical rebuild rebuilt routing")
	}
	if first.Program.String() != second.Program.String() {
		t.Error("identical rebuild changed the table program")
	}
	if ops := route.Diff(first.Program, second.Program); len(ops) != 0 {
		t.Errorf("identical rebuild produced a %d-op delta", len(ops))
	}
}

// TestChainChurnSkipsStages: adding a chain over the same NF set must
// keep the parser-merge and placement stages cached and reuse every
// behavioural program — only tables (blocks, allocation, routing,
// lint) are recomputed.
func TestChainChurnSkipsStages(t *testing.T) {
	in := scenarioInputs(t)
	cache := NewCache()
	if _, err := Build(in, cache); err != nil {
		t.Fatal(err)
	}

	grown := in
	grown.Chains = append(append([]route.Chain(nil), in.Chains...), extraChain(in))
	res, err := Build(grown, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{StageParserMerge, StagePlacement} {
		st := res.Info.Stage(name)
		if st == nil || !st.CacheHit {
			t.Errorf("stage %s not served from cache after chain add: %+v", name, st)
		}
	}
	if res.Info.CacheHits < 2 {
		t.Errorf("chain add cached only %d stages", res.Info.CacheHits)
	}
	if len(res.ChangedFuncs) != 0 {
		t.Errorf("same-NF chain add rebuilt programs: %v", res.ChangedFuncs)
	}
	if res.Info.Stage(StageRouting).CacheHit {
		t.Error("chain add did not rebuild routing")
	}
}

// assertSameBuild fails unless the cached build is indistinguishable
// from the from-scratch one: table program, placement and cost, lint
// findings, every pipelet's table-to-stage map, traversals and the
// content hash of every stage.
func assertSameBuild(t *testing.T, step string, incr, fresh *Result) {
	t.Helper()
	if incr.Program.String() != fresh.Program.String() {
		t.Errorf("%s: programs differ:\nincremental:\n%s\nfresh:\n%s",
			step, incr.Program.String(), fresh.Program.String())
	}
	if canonPlacement(incr.Placement) != canonPlacement(fresh.Placement) {
		t.Errorf("%s: placements differ", step)
	}
	if incr.Cost != fresh.Cost {
		t.Errorf("%s: costs differ: %+v vs %+v", step, incr.Cost, fresh.Cost)
	}
	if ib, fb := incr.Composer.Branching.BranchingEntries(), fresh.Composer.Branching.BranchingEntries(); ib != fb {
		t.Errorf("%s: branching entries differ: %d vs %d", step, ib, fb)
	}
	// Finding by finding (rule, severity, where, message, fix), and both
	// against the full rule set run in one pass over the fresh build:
	// a report assembled from cached block, parser and global findings
	// must not be distinguishable from it.
	if !reflect.DeepEqual(incr.Lint.Findings, fresh.Lint.Findings) {
		t.Errorf("%s: lint reports differ:\nincremental:\n%s\nfresh:\n%s", step, incr.Lint, fresh.Lint)
	}
	if full := lint.AnalyzeDeployment(fresh.Dep, 0); !reflect.DeepEqual(incr.Lint.Findings, full.Findings) {
		t.Errorf("%s: lint report differs from lint.Rules() in one pass:\nincremental:\n%s\nfull:\n%s", step, incr.Lint, full)
	}
	if len(incr.Plans) != len(fresh.Plans) {
		t.Fatalf("%s: %d plans vs %d", step, len(incr.Plans), len(fresh.Plans))
	}
	for pl, plan := range fresh.Plans {
		if got := incr.Plans[pl]; got == nil || !reflect.DeepEqual(got.TableStage, plan.TableStage) {
			t.Errorf("%s: pipelet %s allocated differently", step, pl)
		}
	}
	if !reflect.DeepEqual(incr.Traversals, fresh.Traversals) {
		t.Errorf("%s: traversals differ", step)
	}
	if len(incr.Info.Stages) != len(fresh.Info.Stages) {
		t.Fatalf("%s: stage counts differ", step)
	}
	for i, st := range fresh.Info.Stages {
		if got := incr.Info.Stages[i]; got.Name != st.Name || got.Hash != st.Hash {
			t.Errorf("%s: stage %s hash %s, fresh build has %s %s", step, got.Name, got.Hash, st.Name, st.Hash)
		}
	}
}

// TestIncrementalEquivalence: a build served partly from cache must be
// byte-identical to a from-scratch build of the same inputs — after one
// chain add, and at every step of a seeded random walk of chain adds,
// removals, re-weights and no-ops over one long-lived cache.
func TestIncrementalEquivalence(t *testing.T) {
	in := scenarioInputs(t)
	cache := NewCache()
	if _, err := Build(in, cache); err != nil {
		t.Fatal(err)
	}
	both := func(step string) {
		t.Helper()
		incr, err := Build(in, cache)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		fresh, err := Build(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		assertSameBuild(t, step, incr, fresh)
	}
	templates := append([]route.Chain(nil), in.Chains...)
	in.Chains = append(append([]route.Chain(nil), in.Chains...), extraChain(in))
	both("chain add")

	rng := rand.New(rand.NewSource(1))
	ops := map[string]int{}
	for step, nextID := 0, uint16(100); step < 60; step++ {
		chains := append([]route.Chain(nil), in.Chains...)
		op := [...]string{"add", "remove", "reweight", "noop"}[rng.Intn(4)]
		switch {
		case op == "add" && len(chains) < 8:
			tmpl := templates[rng.Intn(len(templates))]
			chains = append(chains, route.Chain{
				PathID: nextID, NFs: append([]string(nil), tmpl.NFs...),
				Weight: 0.05 + rng.Float64(), ExitPipeline: tmpl.ExitPipeline,
			})
			nextID++
		case op == "remove" && len(chains) > 1:
			i := rng.Intn(len(chains))
			chains = append(chains[:i], chains[i+1:]...)
		case op == "reweight":
			chains[rng.Intn(len(chains))].Weight = 0.05 + rng.Float64()
		default:
			op = "noop"
		}
		ops[op]++
		in.Chains = chains
		both(fmt.Sprintf("step %d (%s, %d chains)", step, op, len(chains)))
	}
	for _, op := range []string{"add", "remove", "reweight", "noop"} {
		if ops[op] == 0 {
			t.Errorf("the walk never took a %s step", op)
		}
	}
}

// TestCacheCloneIsolation: a dry-run build against a clone must leave
// the original cache producing the same decisions as before.
func TestCacheCloneIsolation(t *testing.T) {
	in := scenarioInputs(t)
	cache := NewCache()
	if _, err := Build(in, cache); err != nil {
		t.Fatal(err)
	}
	grown := in
	grown.Chains = append(append([]route.Chain(nil), in.Chains...), extraChain(in))
	if _, err := Build(grown, cache.Clone()); err != nil {
		t.Fatal(err)
	}
	// The original cache still reflects the ungrown build: an identical
	// rebuild is a full hit.
	res, err := Build(in, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Info.Stages {
		if !st.CacheHit {
			t.Errorf("stage %s invalidated by dry-run on clone", st.Name)
		}
	}
}

// namedFirewall lets one passthrough firewall play many chain roles.
type namedFirewall struct {
	*nf.Firewall
	name string
}

func (f namedFirewall) Name() string { return f.name }

// TestNineNFsOnTofino4FallBackToAnneal: 8^9 assignments exceed the
// exhaustive bound, so the default optimizer places a 9-NF chain on
// Tofino4 by annealing instead of enumerating them.
func TestNineNFsOnTofino4FallBackToAnneal(t *testing.T) {
	var nfs nf.List
	var names []string
	for i := 0; i < 9; i++ {
		n := fmt.Sprintf("fw%d", i)
		nfs = append(nfs, namedFirewall{Firewall: nf.NewFirewall(true), name: n})
		names = append(names, n)
	}
	pl, _, err := ResolvePlacement(Inputs{
		Prof:   asic.Tofino4(),
		Chains: []route.Chain{{PathID: 1, NFs: names, Weight: 1}},
		NFs:    nfs,
	})
	if err != nil {
		t.Fatalf("9-NF chain refused: %v", err)
	}
	for _, n := range names {
		if _, ok := pl.Of(n); !ok {
			t.Errorf("%s unplaced", n)
		}
	}
}

// TestDefaultOptimizerFallsBackToAnneal: a chain with more unpinned NFs
// than exhaustive search takes is placed by annealing, not refused.
func TestDefaultOptimizerFallsBackToAnneal(t *testing.T) {
	var nfs nf.List
	var names []string
	for i := 0; i < 13; i++ {
		n := fmt.Sprintf("fw%d", i)
		nfs = append(nfs, namedFirewall{Firewall: nf.NewFirewall(true), name: n})
		names = append(names, n)
	}
	in := Inputs{
		Prof:   asic.Tofino4(),
		Chains: []route.Chain{{PathID: 1, NFs: names, Weight: 1}},
		NFs:    nfs,
	}
	pl, _, err := ResolvePlacement(in)
	if err != nil {
		t.Fatalf("13-NF chain refused: %v", err)
	}
	for _, n := range names {
		if _, ok := pl.Of(n); !ok {
			t.Errorf("%s unplaced", n)
		}
	}
}

// Problem pins the classifier to the entry ingress when the chains use
// it, keeping every other pin and leaving the caller's map alone; chains
// without it (a non-entry fabric switch's sub-chains) get no pin, even
// when the NF list holds a classifier, so no placer charges its stages.
func TestProblemPinsTheClassifierOnlyWhereChainsUseIt(t *testing.T) {
	in := scenarioInputs(t)
	in.Enter = 1
	in.Pin = map[string]asic.PipeletID{"fw": {Pipeline: 0, Dir: asic.Egress}}
	prob := Problem(in, nil)
	want := map[string]asic.PipeletID{"fw": {Pipeline: 0, Dir: asic.Egress}, route.Classifier: {Pipeline: 1, Dir: asic.Ingress}}
	if !reflect.DeepEqual(prob.Fixed, want) || len(in.Pin) != 1 || prob.Enter != 1 {
		t.Errorf("classifier chains: pins %v (caller's %v), enter %d", prob.Fixed, in.Pin, prob.Enter)
	}
	in.Pin = nil
	in.Chains = []route.Chain{{PathID: 1, NFs: []string{"vgw", "router"}, Weight: 1}}
	if prob := Problem(in, nil); len(prob.Fixed) != 0 {
		t.Errorf("sub-chains without the classifier pinned %v", prob.Fixed)
	}
}
