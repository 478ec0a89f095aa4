package p4_test

import (
	"reflect"
	"testing"

	"dejavu/internal/p4"
	"dejavu/internal/pipeline"
	"dejavu/internal/scenario"
)

// TestDepsMatchesReferenceOnScenario: Deps ≡ the pairwise reference on
// every composed pipelet block of the §5 scenario, under the pinned
// Fig. 9 placement and each optimizer's own.
func TestDepsMatchesReferenceOnScenario(t *testing.T) {
	for _, opt := range []string{"pinned", "naive", "greedy", "exhaustive"} {
		s := scenario.MustNew()
		in := pipeline.Inputs{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Optimizer: opt}
		if opt == "pinned" {
			in.Optimizer, in.Placement = "", s.Placement
		}
		res, err := pipeline.Build(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", opt, err)
		}
		edges := 0
		for pl, block := range res.Dep.Blocks {
			want, werr := p4.DepsRef(block)
			got, gerr := block.Deps()
			if werr != nil || gerr != nil {
				t.Fatalf("%s %s: ref error %v, new error %v", opt, pl, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: deps differ\nref: %v\nnew: %v", opt, pl, want, got)
			}
			edges += len(got)
		}
		if edges == 0 {
			t.Errorf("%s: scenario blocks have no dependencies at all", opt)
		}
	}
}
