package intent

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dejavu/internal/cluster"
	"dejavu/internal/config"
)

// outcome is what a dry run promises about the apply of the same
// document on the same state: its refusal, its staged build (each
// stage's name, input hash and cache hit), its write-set per switch
// and, on a fabric, the switches the round uses and reprograms, the
// chains it re-places and the chains it blackholes.
type outcome struct {
	err              string
	stages           []string
	entries, reloads int
	writes           []cluster.SwitchWrite
	path, changed    []int
	replaced         []uint16
	blackholed       map[uint16]string
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
	o.entries, o.reloads, o.writes = rep.DeltaEntries, rep.ProgramReloads, rep.Writes
	if f := rep.Fabric; f != nil {
		o.path, o.changed, o.replaced, o.blackholed = f.Switches, f.Changed, f.Replaced, f.Blackholed
	}
	return o
}

func (o outcome) equal(p outcome) bool {
	return o.err == p.err && slices.Equal(o.stages, p.stages) && o.entries == p.entries && o.reloads == p.reloads &&
		slices.EqualFunc(o.writes, p.writes, func(a, b cluster.SwitchWrite) bool {
			return a.Switch == b.Switch && slices.Equal(a.Programs, b.Programs) && slices.Equal(a.Delta, b.Delta)
		}) &&
		slices.Equal(o.path, p.path) && slices.Equal(o.changed, p.changed) && slices.Equal(o.replaced, p.replaced) &&
		maps.Equal(o.blackholed, p.blackholed)
}

// walk draws a seeded edit sequence: the initial apply, then every step
// twice, in an order drawn from rng.
func walk(rng *rand.Rand, steps []walkStep) []walkStep {
	w := []walkStep{{name: "initial"}}
	for range 2 {
		for _, k := range rng.Perm(len(steps)) {
			w = append(w, steps[k])
		}
	}
	return w
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
		a := NewApplier(nil)
		for i, step := range walk(rng, walkSteps) {
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

// fabricWalkSteps are the edits the fabric walk draws from: the chain
// set (a live update of the fabric), a pin move, a stage demand and the
// switch count (each a change of the fabric section, so a redeploy), and
// a classifier pinned off the entry (refused).
var fabricWalkSteps = []walkStep{
	walkSteps[0], walkSteps[1],
	{"fw pin move", func(rng *rand.Rand, d *Document) {
		cur, pinned := d.Fabric.Pin["fw"]
		to := rng.Intn(d.Fabric.Switches)
		for pinned && to == cur {
			to = rng.Intn(d.Fabric.Switches)
		}
		d.Fabric.Pin = map[string]int{"fw": to}
	}},
	{"stage demand change", func(rng *rand.Rand, d *Document) {
		n := []string{"classifier", "fw", "router"}[rng.Intn(3)]
		opts := slices.DeleteFunc([]int{4, 6, 8, 10}, func(v int) bool { return v == d.Fabric.StageDemand[n] })
		d.Fabric.StageDemand[n] = opts[rng.Intn(len(opts))]
	}},
	{"switch count change", func(rng *rand.Rand, d *Document) {
		opts := slices.DeleteFunc([]int{3, 4, 5}, func(v int) bool { return v == d.Fabric.Switches })
		d.Fabric.Switches = opts[rng.Intn(len(opts))]
	}},
	{"classifier off the entry", func(_ *rand.Rand, d *Document) {
		d.Fabric.Pin = maps.Clone(d.Fabric.Pin)
		if d.Fabric.Pin == nil {
			d.Fabric.Pin = map[string]int{}
		}
		d.Fabric.Pin["classifier"] = 2
	}},
}

// TestFabricDryRunMatchesApply is TestDryRunMatchesApply on a 3-switch
// spine at stage demand 6/6/6: seeded walks of chain edits, fabric
// section edits and a refused pin, and before each step a switch of the
// live fabric killed or revived at random. At each step the dry run and
// then the apply converge the same fabric toward the same document, and
// they must agree on the refusal, the switches the round uses and
// reprograms, the chains it re-places and blackholes, and every
// switch's reloaded pipelets and branching ops.
func TestFabricDryRunMatchesApply(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewApplier(nil)
		for i, step := range walk(rng, fabricWalkSteps) {
			next := testDoc(t)
			next.Fabric = &FabricSpec{Switches: 3, StageDemand: map[string]int{"classifier": 6, "fw": 6, "router": 6}}
			if cur := a.Current(); cur != nil {
				next = cur
				step.edit(rng, next)
			}
			health := "all alive"
			if fd := a.FabricDeployment(); fd != nil && rng.Intn(2) == 0 {
				sw := 1 + rng.Intn(len(fd.Fabric.Switches)-1)
				if rng.Intn(6) == 0 {
					sw = 0
				}
				set, verb := fd.Fabric.KillSwitch, "killed"
				if fd.Fabric.SwitchHealth(sw) == cluster.HealthDead {
					set, verb = fd.Fabric.ReviveSwitch, "revived"
				}
				if err := set(sw); err != nil {
					t.Fatal(err)
				}
				health = fmt.Sprintf("switch %d %s", sw, verb)
			}
			dry, dryErr := a.Apply(next, Options{DryRun: true})
			rep, err := a.Apply(next, Options{})
			if want, got := outcomeOf(dry, dryErr), outcomeOf(rep, err); !want.equal(got) {
				t.Fatalf("seed %d step %d (%s, %s): dry run\n%+v\napply\n%+v", seed, i, step.name, health, want, got)
			}
			if (err != nil) != (step.name == "classifier off the entry") {
				t.Fatalf("seed %d step %d (%s): apply error %v", seed, i, step.name, err)
			}
		}
	}
}
