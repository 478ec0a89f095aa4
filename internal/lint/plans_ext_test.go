package lint_test

import (
	"testing"

	"dejavu/internal/core"
	"dejavu/internal/intent"
	"dejavu/internal/lint"
	"dejavu/internal/pipeline"
	"dejavu/internal/scenario"
)

func TestScenarioHasNoErrorFindings(t *testing.T) {
	s := scenario.MustNew()
	res, err := pipeline.Build(pipeline.Inputs{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Placement: s.Placement}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := lint.AnalyzeDeployment(res.Dep, 0); rep.HasErrors() {
		t.Errorf("built scenario produced error findings:\n%s", rep)
	}
}

// TestReportSameWithAndWithoutPlans: the full report over a composed
// deployment is the same whether Target.Plans arrives filled (the
// staged build's lint, which core.Lint reports) or the rules allocate
// for themselves (lint.AnalyzeDeployment) — on the clean §5 scenario
// and on the known-broken demo config.
func TestReportSameWithAndWithoutPlans(t *testing.T) {
	s := scenario.MustNew()
	doc, err := intent.Load("../../configs/lintdemo-bad.json")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := doc.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]core.Config{
		"scenario":     {Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Placement: s.Placement},
		"lintdemo-bad": *bad,
	} {
		render := func(r *lint.Report) string {
			js, err := r.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return js
		}
		built, err := core.Lint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dep, _, err := core.Compose(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		with, without := render(built), render(lint.AnalyzeDeployment(dep, cfg.Enter))
		if without != with {
			t.Errorf("%s: reports differ\nplans nil:\n%s\nplans supplied:\n%s", name, without, with)
		}
		if name == "lintdemo-bad" && !built.HasErrors() {
			t.Error("lintdemo-bad.json no longer produces error findings")
		}
	}
}
