package lint_test

import (
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/compose"
	"dejavu/internal/core"
	"dejavu/internal/intent"
	"dejavu/internal/lint"
	"dejavu/internal/scenario"
)

// TestReportSameWithAndWithoutPlans: the full report over a composed
// deployment is the same whether Target.Plans arrives filled (as
// pipeline.Build hands it over) or the rules allocate for themselves —
// on the clean §5 scenario and on the known-broken demo config.
func TestReportSameWithAndWithoutPlans(t *testing.T) {
	s := scenario.MustNew()
	clean, err := compose.New(s.Prof, s.Chains, s.Placement, s.NFs)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := intent.Load("../../configs/lintdemo-bad.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := doc.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	bad, _, err := core.Composer(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, comp := range map[string]*compose.Composer{"scenario": clean, "lintdemo-bad": bad} {
		render := func(supply bool) string {
			r := lint.NewReport()
			tg := lint.NewTarget(comp, r)
			if supply {
				tg.Plans = make(map[asic.PipeletID]*compiler.Plan)
				for pl, block := range tg.Blocks {
					plan, err := compiler.Allocate(block, comp.Prof.StagesPerPipelet)
					if err != nil {
						t.Fatalf("%s %s: %v", name, pl, err)
					}
					tg.Plans[pl] = plan
				}
			}
			for _, f := range lint.AnalyzeTarget(tg, lint.Rules()).Findings {
				r.Add(f)
			}
			r.Sort()
			js, err := r.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return js
		}
		without, with := render(false), render(true)
		if without != with {
			t.Errorf("%s: reports differ\nplans nil:\n%s\nplans supplied:\n%s", name, without, with)
		}
		if want := lint.Analyze(comp); name == "lintdemo-bad" && !want.HasErrors() {
			t.Error("lintdemo-bad.json no longer produces error findings")
		}
	}
}
