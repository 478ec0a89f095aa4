package intent

import (
	"os"
	"runtime"
	"slices"
	"testing"

	"dejavu/internal/config"
	"dejavu/internal/core"
)

// churnDocs returns the §5 edge-cloud intent (the committed example)
// and the same intent plus chain 40 over the already-placed NFs — the
// one-chain delta the repository benchmark's apply-churn toggles.
func churnDocs(tb testing.TB) (base, plus *Document) {
	tb.Helper()
	f, err := os.Open("../../examples/intent/intent.json")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	if base, err = Parse(f); err != nil {
		tb.Fatal(err)
	}
	plus = base.Clone()
	plus.Chains = append(plus.Chains, config.ChainSpec{
		PathID: 40, NFs: []string{"classifier", "fw", "vgw", "lb", "router"}, Weight: 0.05,
	})
	if err := plus.Validate(); err != nil {
		tb.Fatal(err)
	}
	return base, plus
}

// churnApplier deploys base and returns the applier and a function that
// applies the other of the two documents on every call, failing unless
// the apply hot-swapped the live deployment.
func churnApplier(tb testing.TB) (a *Applier, toggle func()) {
	tb.Helper()
	base, plus := churnDocs(tb)
	a = NewApplier(nil)
	if _, err := a.Apply(base, Options{}); err != nil {
		tb.Fatal(err)
	}
	docs, next := [2]*Document{plus, base}, 0
	return a, func() {
		rep, err := a.Apply(docs[next], Options{})
		if err != nil || rep.NoOp || rep.Redeployed || rep.RolledBack || rep.DeltaEntries == 0 {
			tb.Fatalf("one-chain delta did not hot-swap: %v %+v", err, rep)
		}
		next = 1 - next
	}
}

// TestApplyAllocBudget bounds two counts that no host moves. One
// incremental apply: the measured 1 324 plus 10 %. Work the staged
// build is supposed to reuse costs hundreds to thousands of allocations
// when it is redone — re-emitting and hashing every NF, a dependency
// graph per lint rule, DV004 re-merging the parser fragments, the
// applier copying its document through JSON or building every NF of it
// to read four settings — so a regression in that reuse shows here as
// a count, not as a timing. One cold core.Compose of the base + chain
// 40 set on the live placement: the measured 1 328 plus 10 %. A cold
// build that rebuilds, re-validates or re-emits the shared static
// parser fragments (5 133 before they were shared), or that re-emits,
// re-hashes or trial-allocates the shared NF control blocks (2 569
// when every build did), fails it. The race detector adds ≈ 6 % to
// both counts, so the cold budget holds in ordinary builds only.
func TestApplyAllocBudget(t *testing.T) {
	const budget, coldBudget = 1457, 1461
	a, toggle := churnApplier(t)
	toggle() // base + chain 40 is live
	d := a.Deployment()
	cold := d.Config
	cold.Chains = slices.Clone(d.Config.Chains)
	cold.Placement = d.Placement.Clone()
	toggle() // both documents' artifacts have been built once
	apply := testing.AllocsPerRun(20, toggle)
	if apply > budget {
		t.Errorf("one-chain apply allocates %.0f objects, budget %d", apply, budget)
	}
	full := testing.AllocsPerRun(20, func() {
		if _, _, err := core.Compose(cold, false); err != nil {
			t.Fatal(err)
		}
	})
	if full > coldBudget && !raceEnabled {
		t.Errorf("a cold build allocates %.0f objects, budget %d", full, coldBudget)
	}
	t.Logf("one-chain apply %.0f allocations, cold build %.0f (%.1fx)", apply, full, full/apply)
}

// TestApplyHeapDoesNotGrow: what the deployment and its build cache
// keep alive does not depend on how many applies they have served —
// the cache holds one generation per stage and one fingerprint per
// live NF object, whatever the churn.
func TestApplyHeapDoesNotGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("16 000 applies")
	}
	_, toggle := churnApplier(t)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second pass frees what the first one's finalizers released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 2000; i++ {
		toggle()
	}
	early := liveHeap()
	for i := 2000; i < 16000; i++ {
		toggle()
	}
	if late := liveHeap(); late > early+64<<10 {
		t.Errorf("live heap grew from %d B after 2 000 applies to %d B after 16 000", early, late)
	}
}

// BenchmarkApplyOneChainDelta times the apply-churn operation: base ↔
// base + chain 40, every apply a hot swap of the live deployment.
func BenchmarkApplyOneChainDelta(b *testing.B) {
	_, toggle := churnApplier(b)
	toggle()
	toggle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toggle()
	}
}
