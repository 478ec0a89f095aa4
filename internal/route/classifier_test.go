package route_test

import (
	"errors"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compose"
	"dejavu/internal/lint"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// A declared single-switch placement that hosts the classifier anywhere
// but the entry ingress pipe is refused wherever a traversal is
// planned: by route.Plan and route.Evaluate with ErrClassifierOffEntry,
// by pipeline.Build before it composes anything, and by lint's DV006,
// once per chain. Entering where the classifier sits, it plans.
func TestPlanRefusesTheClassifierOffEntry(t *testing.T) {
	s := scenario.MustNew()
	for _, at := range []asic.PipeletID{{Pipeline: 0, Dir: asic.Egress}, {Pipeline: 1, Dir: asic.Ingress}} {
		p := s.Placement.Clone()
		p.Assign(route.Classifier, at)
		if _, err := route.Plan(s.Chains[0], p, 0); !errors.Is(err, route.ErrClassifierOffEntry) {
			t.Errorf("classifier on %s: Plan = %v", at, err)
		}
		if _, err := route.Evaluate(s.Chains, p, 0); !errors.Is(err, route.ErrClassifierOffEntry) {
			t.Errorf("classifier on %s: Evaluate = %v", at, err)
		}
		in := pipeline.Inputs{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Enter: 0, Placement: p}
		if res, err := pipeline.Build(in, nil); res != nil || !errors.Is(err, route.ErrClassifierOffEntry) {
			t.Errorf("classifier on %s: Build = %v", at, err)
		}
		comp, err := compose.New(s.Prof, s.Chains, p, s.NFs)
		if err != nil {
			t.Fatal(err)
		}
		rep := lint.AnalyzeTarget(&lint.Target{
			Prof: s.Prof, Chains: s.Chains, Placement: p, NFs: s.NFs, Branching: comp.Branching, Enter: 0,
		}, lint.GlobalRules())
		var refused int
		for _, f := range rep.ByRule(lint.RuleBranching) {
			if f.Severity == lint.SevError && strings.Contains(f.Message, route.ErrClassifierOffEntry.Error()) {
				refused++
			}
		}
		if refused != len(s.Chains) {
			t.Errorf("classifier on %s: %d DV006 refusals, want %d:\n%s", at, refused, len(s.Chains), rep)
		}
		if at.Dir == asic.Ingress {
			if _, err := route.Evaluate(s.Chains, p, at.Pipeline); err != nil {
				t.Errorf("entering on %s: %v", at, err)
			}
		}
	}
}
