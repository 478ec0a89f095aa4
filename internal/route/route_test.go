package route

import (
	"testing"

	"dejavu/internal/asic"
)

func pl(pipeline int, d asic.Direction) asic.PipeletID {
	return asic.PipeletID{Pipeline: pipeline, Dir: d}
}

// fig6Chain is the A-B-C-D-E-F chain of Fig. 6, exiting on egress 0.
// Like the paper's example, the exit port is fixed in advance ("packets
// should be eventually forwarded to a port on Egress 0"), enabling the
// Fig. 6(b) direct-exit tail.
func fig6Chain() Chain {
	return Chain{
		PathID: 2, NFs: []string{"A", "B", "C", "D", "E", "F"}, Weight: 1,
		ExitPipeline: 0, StaticExitPort: 5,
	}
}

// fig6aPlacement: AB on ingress 0 (sequential), C on egress 0, D on
// ingress 1, EF on egress 1 (sequential).
func fig6aPlacement() *Placement {
	p := NewPlacement()
	p.Assign("A", pl(0, asic.Ingress))
	p.Assign("B", pl(0, asic.Ingress))
	p.Assign("C", pl(0, asic.Egress))
	p.Assign("D", pl(1, asic.Ingress))
	p.Assign("E", pl(1, asic.Egress))
	p.Assign("F", pl(1, asic.Egress))
	return p
}

// fig6bPlacement: the improved placement — C and EF exchanged.
func fig6bPlacement() *Placement {
	p := NewPlacement()
	p.Assign("A", pl(0, asic.Ingress))
	p.Assign("B", pl(0, asic.Ingress))
	p.Assign("C", pl(1, asic.Egress))
	p.Assign("D", pl(1, asic.Ingress))
	p.Assign("E", pl(0, asic.Egress))
	p.Assign("F", pl(0, asic.Egress))
	return p
}

func TestChainIndexConvention(t *testing.T) {
	c := fig6Chain()
	if c.InitialIndex() != 6 {
		t.Errorf("InitialIndex = %d", c.InitialIndex())
	}
	if n, ok := c.NFAt(6); !ok || n != "A" {
		t.Errorf("NFAt(6) = %q,%v", n, ok)
	}
	if n, ok := c.NFAt(1); !ok || n != "F" {
		t.Errorf("NFAt(1) = %q,%v", n, ok)
	}
	if _, ok := c.NFAt(0); ok {
		t.Error("NFAt(0) returned an NF")
	}
	if _, ok := c.NFAt(7); ok {
		t.Error("NFAt(7) returned an NF")
	}
}

func TestChainValidate(t *testing.T) {
	if err := fig6Chain().Validate(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	bad := []struct {
		c    Chain
		want string
	}{
		{Chain{NFs: []string{"a"}}, "route: path ID 0 is reserved for unclassified traffic"},
		{Chain{PathID: 1}, "route: chain 1 has no NFs"},
		{Chain{PathID: 1, NFs: []string{"a", "a"}}, `route: chain 1 visits NF "a" twice`},
		{Chain{PathID: 1, NFs: []string{"a", "b", "c", "b"}}, `route: chain 1 visits NF "b" twice`},
		{Chain{PathID: 1, NFs: []string{"a"}, Weight: -1}, "route: chain 1 has negative weight"},
	}
	for i, b := range bad {
		err := b.c.Validate()
		if err == nil || err.Error() != b.want {
			t.Errorf("bad chain %d: Validate = %v, want %q", i, err, b.want)
		}
		if _, err := Plan(b.c, fig6aPlacement(), 0); err == nil || err.Error() != b.want {
			t.Errorf("bad chain %d: Plan = %v, want %q", i, err, b.want)
		}
	}
}

func TestPlanFig6a(t *testing.T) {
	// Paper: Ing0 -> Eg0 -> Ing0 -> Eg1 -> Ing1 -> Eg1 -> Ing1 -> Eg0,
	// three recirculations.
	tr, err := Plan(fig6Chain(), fig6aPlacement(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recirculations != 3 {
		t.Errorf("Recirculations = %d, want 3\npath: %s", tr.Recirculations, tr.Path())
	}
	want := "ingress 0 -> egress 0 -> ingress 0 -> egress 1 -> ingress 1 -> egress 1 -> ingress 1 -> egress 0"
	if tr.Path() != want {
		t.Errorf("Path:\n got  %s\n want %s", tr.Path(), want)
	}
	// Placers call Plan for every candidate: the traversal's steps are
	// its one allocation.
	c, p := fig6Chain(), fig6aPlacement()
	if n := testing.AllocsPerRun(100, func() { Plan(c, p, 0) }); n > 1 {
		t.Errorf("Plan allocates %v times per call, want at most 1", n)
	}
}

func TestPlanFig6b(t *testing.T) {
	// Paper: Ing0 -> Eg1 -> Ing1 -> Eg0, one recirculation.
	tr, err := Plan(fig6Chain(), fig6bPlacement(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recirculations != 1 {
		t.Errorf("Recirculations = %d, want 1\npath: %s", tr.Recirculations, tr.Path())
	}
	want := "ingress 0 -> egress 1 -> ingress 1 -> egress 0"
	if tr.Path() != want {
		t.Errorf("Path:\n got  %s\n want %s", tr.Path(), want)
	}
}

func TestPlanAllIngressSequential(t *testing.T) {
	// Whole chain on one ingress pipelet: no recirculation at all.
	p := NewPlacement()
	c := Chain{PathID: 1, NFs: []string{"x", "y", "z"}, ExitPipeline: 0}
	for _, n := range c.NFs {
		p.Assign(n, pl(0, asic.Ingress))
	}
	tr, err := Plan(c, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recirculations != 0 || tr.Resubmissions != 0 {
		t.Errorf("cost = %d recirc, %d resubmit; want 0,0", tr.Recirculations, tr.Resubmissions)
	}
	if tr.Path() != "ingress 0 -> egress 0" {
		t.Errorf("Path = %s", tr.Path())
	}
}

func TestPlanParallelIngressCostsResubmissions(t *testing.T) {
	// Two NFs parallel-composed on the same ingress: the second needs a
	// resubmission (§3.2).
	p := NewPlacement()
	c := Chain{PathID: 1, NFs: []string{"x", "y"}, ExitPipeline: 0}
	p.Assign("x", pl(0, asic.Ingress))
	p.Assign("y", pl(0, asic.Ingress))
	p.SetMode(pl(0, asic.Ingress), Parallel)
	tr, err := Plan(c, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Resubmissions != 1 {
		t.Errorf("Resubmissions = %d, want 1", tr.Resubmissions)
	}
	if tr.Recirculations != 0 {
		t.Errorf("Recirculations = %d, want 0", tr.Recirculations)
	}
}

func TestPlanParallelEgressCostsRecirculations(t *testing.T) {
	// Two NFs parallel-composed on the same egress: each branch costs a
	// recirculation; the final NF also bounces (its port was loopback).
	p := NewPlacement()
	c := Chain{PathID: 1, NFs: []string{"x", "y"}, ExitPipeline: 0}
	p.Assign("x", pl(0, asic.Egress))
	p.Assign("y", pl(0, asic.Egress))
	p.SetMode(pl(0, asic.Egress), Parallel)
	tr, err := Plan(c, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recirculations != 2 {
		t.Errorf("Recirculations = %d, want 2\npath: %s", tr.Recirculations, tr.Path())
	}
}

func TestPlanSequentialEgressDirectExit(t *testing.T) {
	// Sequentially-composed NFs on the exit pipeline's egress pipe:
	// consumed on the way out, zero recirculations (Fig. 6(b)'s tail).
	// Requires a statically-known exit port.
	p := NewPlacement()
	c := Chain{PathID: 1, NFs: []string{"x", "y"}, ExitPipeline: 0, StaticExitPort: 3}
	p.Assign("x", pl(0, asic.Egress))
	p.Assign("y", pl(0, asic.Egress))
	tr, err := Plan(c, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recirculations != 0 {
		t.Errorf("Recirculations = %d, want 0\npath: %s", tr.Recirculations, tr.Path())
	}
	if tr.Path() != "ingress 0 -> egress 0" {
		t.Errorf("Path = %s", tr.Path())
	}
}

func TestPlanLastNFInNonExitEgressBounces(t *testing.T) {
	// The chain ends in egress 1 but exits from pipeline 0: the packet
	// must bounce once more to reach an exit port.
	p := NewPlacement()
	c := Chain{PathID: 1, NFs: []string{"x"}, ExitPipeline: 0}
	p.Assign("x", pl(1, asic.Egress))
	tr, err := Plan(c, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recirculations != 1 {
		t.Errorf("Recirculations = %d, want 1\npath: %s", tr.Recirculations, tr.Path())
	}
	want := "ingress 0 -> egress 1 -> ingress 1 -> egress 0"
	if tr.Path() != want {
		t.Errorf("Path = %s", tr.Path())
	}
}

func TestPlanRemoteRunEndsTheVisit(t *testing.T) {
	// r1 and r2 live on another switch: after x the packet leaves on the
	// wire, comes back at ingress 0 for y on egress 1, and bounces once.
	p := NewPlacement()
	c := Chain{PathID: 1, NFs: []string{"r0", "x", "r1", "r2", "y"}, ExitPipeline: 0}
	p.AssignRemote("r0", 10)
	p.Assign("x", pl(0, asic.Ingress))
	p.AssignRemote("r1", 10)
	p.AssignRemote("r2", asic.PortUnset)
	p.Assign("y", pl(1, asic.Egress))
	tr, err := Plan(c, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := "ingress 0 -> ingress 0 -> ingress 0 -> egress 1 -> ingress 1 -> egress 0"
	if tr.Path() != want || tr.Recirculations != 1 || tr.Resubmissions != 0 {
		t.Errorf("Path = %s, %d recirculations, %d resubmissions", tr.Path(), tr.Recirculations, tr.Resubmissions)
	}
}

func TestPlanUnplacedNF(t *testing.T) {
	c := Chain{PathID: 1, NFs: []string{"ghost"}, ExitPipeline: 0}
	if _, err := Plan(c, NewPlacement(), 0); err == nil {
		t.Error("plan with unplaced NF succeeded")
	}
}

func TestEvaluateWeighted(t *testing.T) {
	// Two chains with different weights; cost must be the weighted sum.
	heavy := fig6Chain()
	heavy.Weight = 0.9
	light := Chain{PathID: 3, NFs: []string{"A", "B"}, Weight: 0.1, ExitPipeline: 0}
	p := fig6aPlacement()
	cost, err := Evaluate([]Chain{heavy, light}, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// heavy: 3 recircs * 0.9; light (A,B on ingress 0): 0.
	if cost.WeightedRecircs != 2.7 {
		t.Errorf("WeightedRecircs = %v, want 2.7", cost.WeightedRecircs)
	}
	better, err := Evaluate([]Chain{heavy, light}, fig6bPlacement(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !better.Less(cost) {
		t.Errorf("fig6b (%v) not better than fig6a (%v)", better, cost)
	}
}

func TestEvaluateDefaultWeight(t *testing.T) {
	c := fig6Chain()
	c.Weight = 0 // defaults to 1
	cost, err := Evaluate([]Chain{c}, fig6aPlacement(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost.WeightedRecircs != 3 {
		t.Errorf("WeightedRecircs = %v, want 3", cost.WeightedRecircs)
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := fig6aPlacement()
	if got := len(p.NFsOn(pl(0, asic.Ingress))); got != 2 {
		t.Errorf("NFsOn(ing0) = %d NFs", got)
	}
	c := p.Clone()
	c.Assign("A", pl(1, asic.Egress))
	if got, _ := p.Of("A"); got != pl(0, asic.Ingress) {
		t.Error("Clone shares NF map")
	}
	c.SetMode(pl(0, asic.Ingress), Parallel)
	if p.ModeOf(pl(0, asic.Ingress)) != Sequential {
		t.Error("Clone shares Mode map")
	}
	if Sequential.String() != "sequential" || Parallel.String() != "parallel" {
		t.Error("Mode.String wrong")
	}
}

func TestPlacementValidate(t *testing.T) {
	prof := asic.Wedge100B()
	chains := []Chain{fig6Chain()}
	if err := fig6aPlacement().Validate(prof, chains); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
	missing := NewPlacement()
	if err := missing.Validate(prof, chains); err == nil {
		t.Error("placement with unplaced NFs validated")
	}
	bad := fig6aPlacement()
	bad.Assign("A", pl(7, asic.Ingress))
	if err := bad.Validate(prof, chains); err == nil {
		t.Error("placement on nonexistent pipeline validated")
	}
	badExit := []Chain{{PathID: 9, NFs: []string{"A"}, ExitPipeline: 9}}
	p9 := NewPlacement()
	p9.Assign("A", pl(0, asic.Ingress))
	if err := p9.Validate(prof, badExit); err == nil {
		t.Error("chain exiting on nonexistent pipeline validated")
	}
}

func TestBranchingDecisions(t *testing.T) {
	chains := []Chain{fig6Chain()}
	p := fig6bPlacement()
	b, err := NewBranching(chains, p)
	if err != nil {
		t.Fatal(err)
	}

	// Out port already set: forward directly (§3.4).
	if h := b.Decide(2, 3, 0, 9); h.Kind != HopForward || h.Port != 9 {
		t.Errorf("outPort-set hop = %+v", h)
	}
	// Index 6 (next = A on ingress 0), currently on ingress 0: A should
	// have been consumed; a repeat visit resubmits.
	if h := b.Decide(2, 6, 0, 0xFFF); h.Kind != HopResubmit {
		t.Errorf("same-ingress hop = %+v", h)
	}
	// Index 4 (next = C on egress 1) from ingress 0: loopback toward
	// pipeline 1.
	if h := b.Decide(2, 4, 0, 0xFFF); h.Kind != HopForward || h.Port != asic.RecircPort(1) {
		t.Errorf("cross-pipeline hop = %+v", h)
	}
	// Index 2 (next = E on egress 0, remainder E,F completes there,
	// exit pipeline 0): direct exit via port 5.
	if h := b.Decide(2, 2, 1, 0xFFF); h.Kind != HopForward || h.Port != 5 {
		t.Errorf("direct-exit hop = %+v", h)
	}
	// Chain complete with no out port: static exit.
	if h := b.Decide(2, 0, 1, 0xFFF); h.Kind != HopForward || h.Port != 5 {
		t.Errorf("complete-chain hop = %+v", h)
	}
	// Unknown path: to CPU.
	if h := b.Decide(99, 1, 0, 0xFFF); h.Kind != HopToCPU {
		t.Errorf("unknown-path hop = %+v", h)
	}
}

func TestBranchingNextNFAndSizes(t *testing.T) {
	chains := []Chain{fig6Chain(), {PathID: 7, NFs: []string{"A"}, ExitPipeline: 0}}
	b, err := NewBranching(chains, fig6aPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := b.NextNF(2, 6); !ok || n != "A" {
		t.Errorf("NextNF = %q,%v", n, ok)
	}
	if _, ok := b.NextNF(42, 1); ok {
		t.Error("NextNF for unknown path succeeded")
	}
	// Entries: (6+1) + (1+1) = 9.
	if got := b.BranchingEntries(); got != 9 {
		t.Errorf("BranchingEntries = %d, want 9", got)
	}
	if b.Chains() != 2 {
		t.Errorf("Chains = %d", b.Chains())
	}
	if c, ok := b.Chain(7); !ok || c.PathID != 7 {
		t.Error("Chain lookup broken")
	}
}

func TestBranchingDuplicatePath(t *testing.T) {
	chains := []Chain{fig6Chain(), fig6Chain()}
	if _, err := NewBranching(chains, fig6aPlacement()); err == nil {
		t.Error("duplicate path IDs accepted")
	}
}

func TestBranchingCustomLoopback(t *testing.T) {
	b, err := NewBranching([]Chain{fig6Chain()}, fig6bPlacement())
	if err != nil {
		t.Fatal(err)
	}
	b.SetLoopbackChooser(func(pipeline int) asic.PortID {
		return asic.PortID(16 * pipeline) // first front-panel port of the pipeline
	})
	if h := b.Decide(2, 4, 0, 0xFFF); h.Kind != HopForward || h.Port != 16 {
		t.Errorf("custom loopback hop = %+v", h)
	}
}

func TestBranchingUnplacedNFToCPU(t *testing.T) {
	c := Chain{PathID: 5, NFs: []string{"ghost"}, ExitPipeline: 0}
	b, err := NewBranching([]Chain{c}, NewPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if h := b.Decide(5, 1, 0, 0xFFF); h.Kind != HopToCPU {
		t.Errorf("unplaced NF hop = %+v", h)
	}
}

func BenchmarkPlanFig6(b *testing.B) {
	c := fig6Chain()
	p := fig6aPlacement()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(c, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchingDecide(b *testing.B) {
	br, _ := NewBranching([]Chain{fig6Chain()}, fig6bPlacement())
	for i := 0; i < b.N; i++ {
		br.Decide(2, 4, 0, 0xFFF)
	}
}
