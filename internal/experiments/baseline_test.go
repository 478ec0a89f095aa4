package experiments

import (
	"math"
	"testing"

	"dejavu/internal/mau"
)

func TestPerCoreGbpsHarmonic(t *testing.T) {
	c := softChain{NFs: []softNF{{Name: "a", GbpsPerCore: 10}, {Name: "b", GbpsPerCore: 10}}}
	if got := c.PerCoreGbps(); math.Abs(got-5) > 1e-9 {
		t.Errorf("PerCoreGbps = %v, want 5", got)
	}
	if got := (softChain{}).PerCoreGbps(); got != 0 {
		t.Errorf("empty chain = %v", got)
	}
	broken := softChain{NFs: []softNF{{Name: "x", GbpsPerCore: 0}}}
	if broken.PerCoreGbps() != 0 {
		t.Error("zero-rate NF not handled")
	}
}

func TestCoresForEdgeCloudScale(t *testing.T) {
	// §1/§5 motivation: matching the prototype's 1.6 Tbps with the
	// 5-NF software chain needs hundreds of cores.
	chain := softChain{NFs: defaultSoftNFs()}
	cores, err := chain.CoresFor(1600)
	if err != nil {
		t.Fatal(err)
	}
	if cores < 100 {
		t.Errorf("CoresFor(1.6T) = %d, expected hundreds", cores)
	}
	// The gap versus a typical 32-core NF server is one to two orders
	// of magnitude (§1).
	speedup := chain.SpeedupVsSoftware(1600, 32)
	if speedup < 10 || speedup > 200 {
		t.Errorf("speedup = %.1fx, want 10-200x", speedup)
	}
	if _, err := (softChain{}).CoresFor(100); err == nil {
		t.Error("CoresFor on empty chain succeeded")
	}
}

func TestThroughputScalesWithCores(t *testing.T) {
	chain := softChain{NFs: defaultSoftNFs()}
	one := chain.ThroughputGbps(1)
	ten := chain.ThroughputGbps(10)
	if math.Abs(ten-10*one) > 1e-9 {
		t.Errorf("scaling broken: 1 core %v, 10 cores %v", one, ten)
	}
	if chain.ThroughputGbps(0) != 0 || chain.ThroughputGbps(-1) != 0 {
		t.Error("nonpositive cores yield throughput")
	}
}

func TestEmulationFactors(t *testing.T) {
	// §6: emulation approaches cost 3-7x native resources.
	if f := hyper4.Factor; f < 3 || f > 7 {
		t.Errorf("Hyper4 factor %v outside the published 3-7x range", f)
	}
	if f := hyperV.Factor; f < 3 || f > 7 {
		t.Errorf("HyperV factor %v outside the published 3-7x range", f)
	}
	if f := codeMerge.Factor; f >= 2 {
		t.Errorf("code merge factor %v should be near-native", f)
	}
	if dejavuNative.Factor != 1 {
		t.Error("Dejavu reference factor != 1")
	}
}

func TestApplyScalesResources(t *testing.T) {
	native := mau.Resources{TableIDs: 10, SRAMBlocks: 100, TCAMBlocks: 20, VLIWSlots: 30}
	scaled := hyper4.Apply(native)
	if scaled.SRAMBlocks != 600 || scaled.TableIDs != 60 || scaled.TCAMBlocks != 120 {
		t.Errorf("Apply = %+v", scaled)
	}
	same := dejavuNative.Apply(native)
	if same != native {
		t.Errorf("identity profile changed resources: %+v", same)
	}
}

func TestCompareFitsVerdicts(t *testing.T) {
	// A native program filling ~25% of a 48-stage budget: Dejavu and
	// code-merge fit; a 6x emulation blows the SRAM budget.
	stages := 48
	native := mau.Resources{
		TableIDs:   stages * mau.StageTableIDs / 4,
		SRAMBlocks: stages * mau.StageSRAMBlocks / 4,
		TCAMBlocks: stages * mau.StageTCAMBlocks / 4,
	}
	rows := compareEmulation(native, stages, dejavuNative, codeMerge, hyperV, hyper4)
	byName := make(map[string]comparisonRow)
	for _, r := range rows {
		byName[r.Approach] = r
	}
	if !byName["Dejavu"].FitsStages {
		t.Error("native program does not fit")
	}
	if !byName["P4Visor-style"].FitsStages {
		t.Error("code-merged program does not fit")
	}
	if byName["Hyper4"].FitsStages {
		t.Error("6x emulation fits a 4x-headroom budget")
	}
	// Resource ordering: Dejavu < CodeMerge < HyperV < Hyper4.
	if !(byName["Dejavu"].Resources.SRAMBlocks < byName["P4Visor-style"].Resources.SRAMBlocks &&
		byName["P4Visor-style"].Resources.SRAMBlocks < byName["HyperV"].Resources.SRAMBlocks &&
		byName["HyperV"].Resources.SRAMBlocks < byName["Hyper4"].Resources.SRAMBlocks) {
		t.Error("resource ordering violated")
	}
}
