package experiments

import (
	"fmt"
	"math"

	"dejavu/internal/mau"
)

// The baselines are the comparison points the paper argues against:
//
//   - A software SFC model (§1): NFs on commodity CPU cores, one or two
//     orders of magnitude slower than switch ASICs. Used to regenerate
//     the motivation numbers (cores needed to match an ASIC).
//   - Emulation-style data plane multiplexing (§6): Hyper4/HyperV run
//     a general-purpose program that interprets the NFs, costing 3–7×
//     the hardware resources of native programs.
//   - Code-level merging (§6): P4Visor/P4Bricks/P4SC merge programs
//     source-to-source with small overhead but no hardware awareness.
//
// Per-core throughput constants are model parameters calibrated to the
// software-NF literature the paper cites (ClickOS, NetBricks-class
// systems reach roughly 5–10 Gbps per core for header-only NFs).

// softNF is one network function running in software.
type softNF struct {
	Name        string
	GbpsPerCore float64 // single-core throughput of this NF alone
}

// defaultSoftNFs returns per-core throughput for the paper's five NFs.
func defaultSoftNFs() []softNF {
	return []softNF{
		{Name: "classifier", GbpsPerCore: 8},
		{Name: "fw", GbpsPerCore: 6},
		{Name: "vgw", GbpsPerCore: 5},
		{Name: "lb", GbpsPerCore: 6},
		{Name: "router", GbpsPerCore: 9},
	}
}

// softChain is a service chain of software NFs.
type softChain struct {
	NFs []softNF
}

// PerCoreGbps returns the chain's run-to-completion throughput on one
// core: a packet traverses every NF, so per-byte costs add
// harmonically (1 / Σ 1/gᵢ).
func (c softChain) PerCoreGbps() float64 {
	if len(c.NFs) == 0 {
		return 0
	}
	inv := 0.0
	for _, n := range c.NFs {
		if n.GbpsPerCore <= 0 {
			return 0
		}
		inv += 1 / n.GbpsPerCore
	}
	return 1 / inv
}

// ThroughputGbps returns the chain throughput with the given cores,
// assuming perfect RSS-style scaling across cores.
func (c softChain) ThroughputGbps(cores int) float64 {
	if cores <= 0 {
		return 0
	}
	return float64(cores) * c.PerCoreGbps()
}

// CoresFor returns the cores needed to sustain target Gbps.
func (c softChain) CoresFor(targetGbps float64) (int, error) {
	per := c.PerCoreGbps()
	if per <= 0 {
		return 0, fmt.Errorf("experiments: software chain has no throughput")
	}
	return int(math.Ceil(targetGbps / per)), nil
}

// SpeedupVsSoftware returns how many times faster an ASIC deployment
// of capacity asicGbps is than one CPU core running the chain — the
// §1 "one or two orders of magnitude" gap is per-core-count, so the
// headline ratio compares against a typical NF server too.
func (c softChain) SpeedupVsSoftware(asicGbps float64, serverCores int) float64 {
	t := c.ThroughputGbps(serverCores)
	if t == 0 {
		return math.Inf(1)
	}
	return asicGbps / t
}

// emulationProfile models a data plane multiplexing approach by its
// resource inflation over native programs.
type emulationProfile struct {
	Name string
	// Factor scales every hardware resource class relative to the
	// native merged program.
	Factor float64
}

// Published overhead ranges (§6 cites 3–7× for emulation approaches).
var (
	hyper4 = emulationProfile{Name: "Hyper4", Factor: 6.0}
	// hyperV is the lighter hypervisor variant.
	hyperV = emulationProfile{Name: "HyperV", Factor: 3.0}
	// codeMerge models source-level composition (P4Visor-class): close
	// to native with a small dedup/branching overhead, but — unlike
	// Dejavu — without hardware-constraint awareness.
	codeMerge = emulationProfile{Name: "P4Visor-style", Factor: 1.15}
	// dejavuNative is the reference point: the native merged program
	// itself.
	dejavuNative = emulationProfile{Name: "Dejavu", Factor: 1.0}
)

// Apply scales a native resource vector by the profile's factor.
func (p emulationProfile) Apply(native mau.Resources) mau.Resources {
	scale := func(v int) int { return int(math.Ceil(float64(v) * p.Factor)) }
	return mau.Resources{
		TableIDs:     scale(native.TableIDs),
		SRAMBlocks:   scale(native.SRAMBlocks),
		TCAMBlocks:   scale(native.TCAMBlocks),
		ExactXbarB:   scale(native.ExactXbarB),
		TernaryXbarB: scale(native.TernaryXbarB),
		VLIWSlots:    scale(native.VLIWSlots),
		Gateways:     scale(native.Gateways),
	}
}

// comparisonRow is one line of the multiplexing comparison.
type comparisonRow struct {
	Approach  string
	Factor    float64
	Resources mau.Resources
	// FitsStages reports whether the inflated program still fits the
	// stage budget (approximated by SRAM+TCAM pressure per stage).
	FitsStages bool
}

// compareEmulation evaluates approaches against a native resource
// demand and a stage budget measured in stage-capacity units.
func compareEmulation(native mau.Resources, stages int, approaches ...emulationProfile) []comparisonRow {
	per := mau.StageCapacity()
	rows := make([]comparisonRow, 0, len(approaches))
	for _, a := range approaches {
		r := a.Apply(native)
		fits := r.SRAMBlocks <= stages*per.SRAMBlocks &&
			r.TCAMBlocks <= stages*per.TCAMBlocks &&
			r.TableIDs <= stages*per.TableIDs
		rows = append(rows, comparisonRow{Approach: a.Name, Factor: a.Factor, Resources: r, FitsStages: fits})
	}
	return rows
}
