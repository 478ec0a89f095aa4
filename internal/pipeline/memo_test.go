package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/ctl"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// countedNF counts how often the build asks an NF for its program.
type countedNF struct {
	nf.NF
	blocks *int
}

func (c *countedNF) Block() *p4.ControlBlock { *c.blocks++; return c.NF.Block() }

// counted wraps every NF of the inputs and returns the shared counter.
func counted(in *Inputs) *int {
	n := new(int)
	wrapped := make(nf.List, len(in.NFs))
	for i, f := range in.NFs {
		wrapped[i] = &countedNF{NF: f, blocks: n}
	}
	in.NFs = wrapped
	return n
}

// TestWarmCacheFingerprintsNothing: once the cache has seen the NF
// objects, a build neither emits nor hashes an NF program again. On an
// identical rebuild nothing else reads Block() either, so the count is
// exactly zero; a chain add recomposes the pipelets and reads each
// placed NF's block once for that, and no more.
func TestWarmCacheFingerprintsNothing(t *testing.T) {
	in := scenarioInputs(t)
	blocks := counted(&in)
	cache := NewCache()
	if _, err := Build(in, cache); err != nil {
		t.Fatal(err)
	}
	if *blocks == 0 {
		t.Fatal("the cold build never read an NF block; the counter is not wired")
	}

	*blocks = 0
	if _, err := Build(in, cache); err != nil {
		t.Fatal(err)
	}
	if *blocks != 0 {
		t.Errorf("identical rebuild read NF blocks %d times, want 0", *blocks)
	}

	// The same through a clone, as every live apply builds.
	if _, err := Build(in, cache.Clone()); err != nil {
		t.Fatal(err)
	}
	if *blocks != 0 {
		t.Errorf("rebuild on a cloned cache read NF blocks %d times, want 0", *blocks)
	}

	grown := in
	grown.Chains = append(append([]route.Chain(nil), in.Chains...), extraChain(in))
	if _, err := Build(grown, cache); err != nil {
		t.Fatal(err)
	}
	if *blocks != len(in.NFs) {
		t.Errorf("chain add read NF blocks %d times, want %d (composition only)", *blocks, len(in.NFs))
	}
}

// TestCacheForgetsRetiredNFs: a cache reused with a fresh list of
// same-named NF objects fingerprints the new objects and remembers
// only them.
func TestCacheForgetsRetiredNFs(t *testing.T) {
	first := scenarioInputs(t)
	cache := NewCache()
	if _, err := Build(first, cache); err != nil {
		t.Fatal(err)
	}
	second := scenarioInputs(t)
	blocks := counted(&second)
	if _, err := Build(second, cache); err != nil {
		t.Fatal(err)
	}
	if *blocks == 0 {
		t.Error("fresh NF objects were served remembered fingerprints")
	}
	if len(cache.fps) != len(second.NFs) {
		t.Errorf("cache remembers %d NFs, the list has %d", len(cache.fps), len(second.NFs))
	}
	for _, f := range second.NFs {
		if cache.fps[f] != nfFingerprint(f) {
			t.Errorf("NF %s: remembered fingerprint is not its own", f.Name())
		}
	}
	for _, f := range first.NFs {
		if _, ok := cache.fps[f]; ok {
			t.Errorf("cache still pins retired NF object %s", f.Name())
		}
	}
}

// sliceNF is an NF of a non-comparable dynamic type: a struct value
// holding a slice cannot be a map key.
type sliceNF struct {
	nf.NF
	pad []int
}

// TestUnkeyableNFIsFingerprintedEveryBuild: an NF the memo cannot key
// is left out of it rather than panicking the build.
func TestUnkeyableNFIsFingerprintedEveryBuild(t *testing.T) {
	in := scenarioInputs(t)
	in.NFs = append(nf.List(nil), in.NFs...)
	in.NFs[len(in.NFs)-1] = sliceNF{NF: in.NFs[len(in.NFs)-1], pad: []int{1}}
	cache := NewCache()
	for i := 0; i < 2; i++ {
		if _, err := Build(in, cache); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.fps) != len(in.NFs)-1 {
		t.Errorf("cache remembers %d NFs, want the %d keyable ones", len(cache.fps), len(in.NFs)-1)
	}
}

// TestFingerprintSurvivesRuntimeWrites is the property the memo rests
// on: an NF's fingerprint covers its program, not its table contents,
// so entries installed while the cache lives cannot change it.
func TestFingerprintSurvivesRuntimeWrites(t *testing.T) {
	s := scenario.MustNew()
	nat := nf.NewNAT(packet.IP4{192, 0, 2, 1}, 4096)
	mirror := nf.NewMirror()
	meter := nf.NewRateLimiter(true)
	ctxfw := nf.NewContextFirewall(true)
	all := append(append(nf.List(nil), s.NFs...), nat, mirror, meter, ctxfw)

	before := make(map[string]string, len(all))
	for _, f := range all {
		before[f.Name()] = nfFingerprint(f)
	}

	ctrl := ctl.New(asic.New(s.Prof), s.NFs)
	for _, w := range []ctl.TableWrite{
		{NF: "router", Table: "ipv4_lpm", Args: []any{packet.IP4{192, 168, 0, 0}, 16, nf.NextHop{Port: 3}}},
		{NF: "fw", Table: "fw_acl", Args: []any{nf.ACLRule{Priority: 5, Permit: true}}},
		{NF: "classifier", Table: "class_map", Args: []any{nf.ClassRule{Path: 10, InitialIndex: 5, Priority: 9}}},
		{NF: "vgw", Table: "vni_table", Args: []any{uint32(7777), uint16(9)}},
	} {
		if err := ctrl.Apply(w); err != nil {
			t.Fatalf("%s/%s: %v", w.NF, w.Table, err)
		}
	}
	for i := 0; i < 1000; i++ {
		w := ctl.TableWrite{NF: "lb", Table: "lb_session", Args: []any{uint32(1000 + i), scenario.Backend1}}
		if err := ctrl.Apply(w); err != nil {
			t.Fatal(err)
		}
		if err := nat.InstallMapping(packet.IP4{10, 0, byte(i >> 8), byte(i)}, 1234, 6, uint16(20000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.LB.Sessions() != 1000 {
		t.Fatalf("installed %d sessions, want 1000", s.LB.Sessions())
	}
	if err := s.VGW.AddEncapRoute(packet.IP4{10, 0, 2, 77}, nf.EncapEntry{VNI: 7777, RemoteIP: scenario.RemoteVTEP, NextMAC: scenario.WorkloadMAC}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.AddTap(packet.IP4{10, 0, 0, 0}, packet.IP4{255, 0, 0, 0}, 7, 1); err != nil {
		t.Fatal(err)
	}
	meter.SetRate(42, 1e6, 1e4)
	if err := ctxfw.AddPolicy(nf.TenantPolicy{Tenant: 42, Permit: false}); err != nil {
		t.Fatal(err)
	}

	for _, f := range all {
		if got := nfFingerprint(f); got != before[f.Name()] {
			t.Errorf("NF %s: fingerprint changed under run-time table writes", f.Name())
		}
	}
}

// TestLintReadsTheAllocationStage: inside Build the allocator and the
// dependency analysis run once per rebuilt pipelet — in the allocation
// stage — and lint reads that stage's plan. Shown without timing: the
// stage details count the same pipelets, and a plan planted in the
// allocation stage's cache entry (contradicting the block on purpose)
// is what DV001 and DV002 then report on.
func TestLintReadsTheAllocationStage(t *testing.T) {
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
	n := len(pipeletIDs(in.Prof))
	all, one := fmt.Sprintf("%d/%d pipelets", n, n), fmt.Sprintf("1/%d pipelets", n)
	alloc, lnt := res.Info.Stage(StageAllocation).Detail, res.Info.Stage(StageLint).Detail
	if !strings.HasPrefix(alloc, all) || !strings.Contains(lnt, " "+all) {
		t.Errorf("chain add: allocation %q, lint %q; want %s in each", alloc, lnt, all)
	}

	pl := asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}
	entry := cache.entries["alloc/"+pl.String()]
	real := entry.val.(*compiler.Plan)
	planted := *real
	planted.Stages = make([]compiler.StageUsage, in.Prof.StagesPerPipelet)
	planted.Deps = []p4.Dep{{From: "p", To: "q", Kind: p4.DepMatch}, {From: "q", To: "p", Kind: p4.DepMatch}}
	cache.entries["alloc/"+pl.String()] = cacheEntry{hash: entry.hash, val: &planted}
	delete(cache.entries, "lint/"+pl.String())

	res, err = Build(grown, cache)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Info.Stage(StageLint).Detail; !strings.Contains(d, " "+one) {
		t.Errorf("lint detail %q, want %s re-linted", d, one)
	}
	var budget, cycle bool
	for _, f := range res.Lint.Findings {
		if f.Where != pl.String() {
			continue
		}
		budget = budget || f.Rule == lint.RuleStageBudget && strings.Contains(f.Message, "uses all 12 MAU stages")
		cycle = cycle || f.Rule == lint.RuleTableDeps && strings.Contains(f.Message, "tables p and q depend")
	}
	if !budget || !cycle {
		t.Errorf("lint did not report on the allocation stage's plan (DV001 %v, DV002 %v):\n%s", budget, cycle, res.Lint)
	}
}
