package pipeline

import (
	"fmt"
	"reflect"
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

// countedNF counts how often the build asks an NF for its program and
// for its parser fragment.
type countedNF struct {
	nf.NF
	blocks, parsers *int
}

func (c *countedNF) Block() *p4.ControlBlock { *c.blocks++; return c.NF.Block() }
func (c *countedNF) Parser() *p4.ParserGraph { *c.parsers++; return c.NF.Parser() }

// counted wraps every NF of the inputs and returns the shared counters.
func counted(in *Inputs) (blocks, parsers *int) {
	blocks, parsers = new(int), new(int)
	wrapped := make(nf.List, len(in.NFs))
	for i, f := range in.NFs {
		wrapped[i] = &countedNF{NF: f, blocks: blocks, parsers: parsers}
	}
	in.NFs = wrapped
	return blocks, parsers
}

// TestWarmCacheFingerprintsNothing: once the cache has seen the NF
// objects, a build neither emits nor hashes an NF program again. On an
// identical rebuild nothing else reads Block() either, so the count is
// exactly zero; a chain add recomposes the pipelets and reads each
// placed NF's block once for that, and no more.
func TestWarmCacheFingerprintsNothing(t *testing.T) {
	in := scenarioInputs(t)
	blocks, _ := counted(&in)
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

// TestWarmBuildCallsNoParser: a cold build asks each NF for its parser
// fragment twice — to fingerprint it and to merge it, once; DV004 reads
// that merge. The generic parser and its DV004 findings are one
// artifact keyed by the parser-merge stage's input hash, so once the
// cache has seen the NF objects, toggling a chain over the same NF set
// asks no NF for its parser fragment at all.
func TestWarmBuildCallsNoParser(t *testing.T) {
	base := scenarioInputs(t)
	_, parsers := counted(&base)
	plus := base
	plus.Chains = append(append([]route.Chain(nil), base.Chains...), extraChain(base))
	cache := NewCache()
	if _, err := Build(base, cache); err != nil {
		t.Fatal(err)
	}
	if *parsers != 2*len(base.NFs) {
		t.Fatalf("the cold build read NF parsers %d times, want %d (fingerprint and merge)", *parsers, 2*len(base.NFs))
	}
	*parsers = 0
	for i, in := range []Inputs{plus, base, plus, base} {
		// On a clone, as every live apply builds, then on the cache.
		for _, c := range []*Cache{cache.Clone(), cache} {
			if _, err := Build(in, c); err != nil {
				t.Fatal(err)
			}
		}
		if *parsers != 0 {
			t.Fatalf("warm build %d read NF parsers %d times, want 0", i, *parsers)
		}
	}
}

// reparsedNF is an NF object standing in for another with a different
// parser fragment.
type reparsedNF struct {
	nf.NF
	parser *p4.ParserGraph
}

func (r *reparsedNF) Parser() *p4.ParserGraph { return r.parser }

// swapNF returns the inputs with the named NF object replaced.
func swapNF(in Inputs, with nf.NF) Inputs {
	in.NFs = append(nf.List(nil), in.NFs...)
	for i, f := range in.NFs {
		if f.Name() == with.Name() {
			in.NFs[i] = with
		}
	}
	return in
}

// TestParserLintFollowsTheParserStage: the cached DV004 findings are
// replaced exactly when the generic parser is. Swapping in an NF object
// whose fragment carries an orphan vertex shows the warning in the very
// next build and swapping the original back removes it; at every step
// the report is the one the full rule set gives on a fresh target. A
// fragment that disagrees with another NF's on a transition (the
// fixture of lint.TestParserMergeAmbiguity) leaves the build without a
// generic parser: cached or cold, the build reaches lint, reports the
// DV004 ambiguity and is refused naming it, and the refusal leaves the
// cache's entries as they were.
func TestParserLintFollowsTheParserStage(t *testing.T) {
	in := scenarioInputs(t)
	router := in.NFs.ByName("router")
	eth := router.Parser().Start

	orphan := router.Parser().Clone()
	orphan.AddVertex(p4.Vertex{Type: "vxlan", Offset: 99})
	ambiguous := p4.NewParserGraph(eth)
	ambiguous.MustEdge(p4.Transition{
		From: eth, Select: "ethernet.ether_type", Value: 0x0800,
		To: p4.Vertex{Type: "arp", Offset: 14},
	})

	cache := NewCache()
	dv004 := func(step string, in Inputs) []lint.Finding {
		t.Helper()
		res, err := Build(in, cache)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		fresh, err := Build(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		assertSameBuild(t, step, res, fresh)
		return res.Lint.ByRule(lint.RuleParserMerge)
	}

	if got := dv004("original", in); len(got) != 0 {
		t.Fatalf("the scenario has DV004 findings: %v", got)
	}
	got := dv004("orphan vertex swapped in", swapNF(in, &reparsedNF{NF: router, parser: orphan}))
	if len(got) != 1 || got[0].Severity != lint.SevWarn || got[0].Where != "vxlan@99" {
		t.Fatalf("orphan vertex: DV004 findings %v, want one warning at vxlan@99", got)
	}
	if got := dv004("original swapped back", in); len(got) != 0 {
		t.Fatalf("original swapped back: DV004 findings remain: %v", got)
	}

	bad := swapNF(in, &reparsedNF{NF: router, parser: ambiguous})
	hashes := func() map[string]string {
		out := make(map[string]string, len(cache.entries))
		for k, e := range cache.entries {
			out[k] = e.hash
		}
		return out
	}
	before := hashes()
	res, err := Build(bad, cache)
	resCold, errCold := Build(bad, nil)
	if err == nil || errCold == nil || err.Error() != errCold.Error() ||
		!strings.Contains(err.Error(), "DV004 router: parser merge ambiguity") {
		t.Fatalf("ambiguous fragment: cached build %v, cold build %v; want the same DV004 refusal", err, errCold)
	}
	for _, r := range []*Result{res, resCold} {
		if r == nil || len(r.Lint.ByRule(lint.RuleParserMerge)) == 0 || r.Dep != nil {
			t.Fatalf("ambiguous fragment: refused build %+v, want its DV004 report and no deployment", r)
		}
	}
	if after := hashes(); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused build changed the cache:\nbefore %v\nafter  %v", before, after)
	}
	if got := dv004("original after the refusal", in); len(got) != 0 {
		t.Fatalf("original after the refusal: DV004 findings %v", got)
	}
}

// TestCacheEntriesBoundedUnderChurn: the cache holds one generation
// per stage key — the parser findings with the parser artifact — and
// one fingerprint per live NF object, however many rebuilds and
// NF-object replacements it has served.
func TestCacheEntriesBoundedUnderChurn(t *testing.T) {
	base := scenarioInputs(t)
	plus := base
	plus.Chains = append(append([]route.Chain(nil), base.Chains...), extraChain(base))
	cache := NewCache()
	for _, in := range []Inputs{base, plus} {
		if _, err := Build(in, cache); err != nil {
			t.Fatal(err)
		}
	}
	want := len(cache.entries)
	if _, ok := cache.entries["parser"]; !ok {
		t.Fatal("no parser entry after two builds")
	}
	router := base.NFs.ByName("router")
	swaps := 0
	for i := 0; i < 2000; i++ {
		if i%40 == 0 {
			// A fresh object for the same NF, alternately with and
			// without an orphan parser vertex: fingerprints, parser,
			// blocks and findings of both kinds pass through the cache.
			g := router.Parser().Clone()
			if swaps%2 == 0 {
				g.AddVertex(p4.Vertex{Type: "vxlan", Offset: 99})
			}
			repl := &reparsedNF{NF: router, parser: g}
			base, plus = swapNF(base, repl), swapNF(plus, repl)
			swaps++
		}
		in := plus
		if i%2 == 1 {
			in = base
		}
		if _, err := Build(in, cache); err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
	if swaps != 50 {
		t.Fatalf("%d NF swaps, want 50", swaps)
	}
	if got := len(cache.entries); got != want {
		t.Errorf("%d cache entries after the churn, %d after the second build", got, want)
	}
	// The last swap put in a fragment without the orphan vertex.
	if pa := cache.entries["parser"].val.(parserArtifact); len(pa.findings) != 0 {
		t.Errorf("the parser entry holds stale findings after the churn: %v", pa.findings)
	}
	if len(cache.fps) != len(base.NFs) {
		t.Errorf("cache remembers %d NF objects, the list has %d", len(cache.fps), len(base.NFs))
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
	blocks, _ := counted(&second)
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
	all := append(append(nf.List(nil), s.NFs...), nat, mirror)

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
	n := len(in.Prof.Pipelets())
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
