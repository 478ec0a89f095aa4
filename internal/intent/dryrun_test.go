package intent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/config"
	"dejavu/internal/route"
)

// outcome is what a dry run promises about the apply of the same
// document on the same state: its refusal, its staged build (each
// stage's name, input hash and cache hit) and its write-set.
type outcome struct {
	err              string
	stages           []string
	entries, reloads int
	programs         []asic.PipeletID
	delta            []route.EntryOp
}

func outcomeOf(rep *Report, err error) outcome {
	var o outcome
	if err != nil {
		o.err = err.Error()
	}
	if rep == nil {
		return o
	}
	for _, s := range rep.Build.Stages {
		o.stages = append(o.stages, fmt.Sprintf("%s %s hit=%v", s.Name, s.Hash, s.CacheHit))
	}
	o.entries, o.reloads = rep.DeltaEntries, rep.ProgramReloads
	o.programs, o.delta = rep.ChangedPrograms, rep.Delta
	return o
}

func (o outcome) equal(p outcome) bool {
	return o.err == p.err && slices.Equal(o.stages, p.stages) && o.entries == p.entries && o.reloads == p.reloads &&
		slices.Equal(o.programs, p.programs) && slices.Equal(o.delta, p.delta)
}

// walkStep is one edit of the walk: it rewrites the next document from
// the current one, drawing its choices from rng.
type walkStep struct {
	name string
	edit func(rng *rand.Rand, d *Document)
}

// walkSteps are the edits the dry-run walk draws from: the chain set,
// a placement hint, the optimizer, telemetry (all live updates), the
// loopback ports (a redeploy) and a loopback port off the front panel
// (refused by the deploy).
var walkSteps = []walkStep{
	{"chain add", func(rng *rand.Rand, d *Document) {
		nfs := [][]string{{"classifier", "fw", "router"}, {"classifier", "router"}}[rng.Intn(2)]
		last := slices.MaxFunc(d.Chains, func(a, b config.ChainSpec) int { return int(a.PathID) - int(b.PathID) })
		d.Chains = append(d.Chains, config.ChainSpec{PathID: last.PathID + 10, NFs: nfs, Weight: 0.1})
	}},
	{"chain remove", func(rng *rand.Rand, d *Document) {
		if len(d.Chains) > 1 { // chain 10, which every hint's fw needs, stays
			i := 1 + rng.Intn(len(d.Chains)-1)
			d.Chains = slices.Delete(d.Chains, i, i+1)
		}
	}},
	{"hint move", func(rng *rand.Rand, d *Document) {
		d.Placement = map[string]string{"fw": []string{"ingress 1", "egress 0", "egress 1"}[rng.Intn(3)]}
	}},
	{"optimizer change", func(rng *rand.Rand, d *Document) {
		opts := slices.DeleteFunc([]string{"exhaustive", "greedy", "anneal"}, func(o string) bool { return o == d.Optimizer })
		d.Optimizer = opts[rng.Intn(len(opts))]
	}},
	{"telemetry toggle", func(_ *rand.Rand, d *Document) { d.Telemetry = !d.Telemetry }},
	{"loopback change", func(rng *rand.Rand, d *Document) {
		sets := slices.DeleteFunc([][]int{{16, 17}, {16, 17, 18}, {18, 19}}, func(s []int) bool { return slices.Equal(s, d.LoopbackPorts) })
		d.LoopbackPorts = sets[rng.Intn(len(sets))]
	}},
	{"invalid loopback", func(_ *rand.Rand, d *Document) { d.LoopbackPorts = []int{16, 500} }},
}

// TestDryRunMatchesApply walks seeded sequences of intent edits: the
// initial apply, then every edit twice, in an order and with choices
// drawn from the seed. At each step the dry run and then the apply
// converge the same state toward the same document, and they must
// agree on the refusal, on every build stage's hash and cache hit, and
// on the write-set: the counts, the pipelets whose programs reload and
// the branching ops. Every edit but the invalid loopback port applies.
func TestDryRunMatchesApply(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		walk := []walkStep{{name: "initial"}}
		for range 2 {
			for _, k := range rng.Perm(len(walkSteps)) {
				walk = append(walk, walkSteps[k])
			}
		}
		a := NewApplier(nil)
		for i, step := range walk {
			next := testDoc(t)
			if cur := a.Current(); cur != nil {
				next = cur
				step.edit(rng, next)
			}
			dry, dryErr := a.Apply(next, Options{DryRun: true})
			rep, err := a.Apply(next, Options{})
			if want, got := outcomeOf(dry, dryErr), outcomeOf(rep, err); !want.equal(got) {
				t.Fatalf("seed %d step %d (%s): dry run\n%+v\napply\n%+v", seed, i, step.name, want, got)
			}
			if (err != nil) != (step.name == "invalid loopback") {
				t.Fatalf("seed %d step %d (%s): apply error %v", seed, i, step.name, err)
			}
		}
	}
}
