package core

import (
	"maps"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
)

// natConfig is the §5 scenario with a NAT in its NF pool that no chain
// uses yet, placed by the default optimizer.
func natConfig() Config {
	cfg := edgeConfig()
	cfg.Placement = nil
	cfg.NFs = append(cfg.NFs, nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1024))
	return cfg
}

// assertLiveNFsStay fails when an NF placed in before sits elsewhere in
// after.
func assertLiveNFsStay(t *testing.T, before, after *route.Placement) {
	t.Helper()
	for name, at := range before.NF {
		if now, ok := after.Of(name); ok && now != at {
			t.Errorf("live NF %s moved from %s to %s", name, at, now)
		}
	}
}

// TestAddChainPlacesNewNFWithinStageBudget: a live add solves the
// deploy's placement problem with every live NF pinned, so the NF it
// introduces goes to a pipelet with room for it. Ingress 0 holds the
// classifier and the firewall and has no room for the NAT; a placer
// that ignores stage budgets put it there and the build refused the
// update with DV001.
func TestAddChainPlacesNewNFWithinStageBudget(t *testing.T) {
	d, err := Deploy(natConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := d.Placement.Clone()
	if err := d.AddChain(route.Chain{PathID: 50, NFs: []string{"classifier", "fw", "nat"}, Weight: 0.1}); err != nil {
		t.Fatalf("AddChain: %v", err)
	}
	at, ok := d.Placement.Of("nat")
	if !ok {
		t.Fatal("nat not placed")
	}
	if at == (asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}) {
		t.Errorf("nat on %s, which has no room for it", at)
	}
	assertLiveNFsStay(t, before, d.Placement)
	if d.Lint.HasErrors() {
		t.Errorf("lint errors after the add: %+v", d.Lint)
	}
}

// TestApplyPinsAnIntroducedNF: a pin on an NF the update introduces
// is honoured, and no live NF moves for it.
func TestApplyPinsAnIntroducedNF(t *testing.T) {
	cfg := edgeConfig()
	cfg.NFs = append(cfg.NFs, nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1024))
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Placement.Clone()
	pin := asic.PipeletID{Pipeline: 1, Dir: asic.Egress}
	u := d.keep(append(d.Config.Chains, route.Chain{PathID: 50, NFs: []string{"classifier", "nat"}, Weight: 0.1}))
	u.Pin = map[string]asic.PipeletID{"nat": pin}
	if err := d.Apply(u); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if at, _ := d.Placement.Of("nat"); at != pin {
		t.Errorf("nat on %s, pinned to %s", at, pin)
	}
	assertLiveNFsStay(t, before, d.Placement)
	if !maps.Equal(d.Config.Pin, u.Pin) {
		t.Errorf("live pins %v, want %v", d.Config.Pin, u.Pin)
	}
}

// TestAddChainBesideAParallelPipelet: a declared placement that packs
// four NFs onto egress 0 in parallel mode fits the compiler but not the
// placer's sequential stage proxy. Live NFs are pinned facts, so an add
// that leaves that pipelet alone is not refused for it, and the
// pipelet keeps its mode.
func TestAddChainBesideAParallelPipelet(t *testing.T) {
	cfg := natConfig()
	cfg.Placement = route.NewPlacement()
	cfg.Placement.Assign("classifier", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	packed := asic.PipeletID{Pipeline: 0, Dir: asic.Egress}
	for _, n := range []string{"fw", "vgw", "lb", "router"} {
		cfg.Placement.Assign(n, packed)
	}
	cfg.Placement.SetMode(packed, route.Parallel)
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Placement.Clone()
	if err := d.AddChain(route.Chain{PathID: 50, NFs: []string{"classifier", "nat"}, Weight: 0.1}); err != nil {
		t.Fatalf("AddChain: %v", err)
	}
	if _, ok := d.Placement.Of("nat"); !ok {
		t.Fatal("nat not placed")
	}
	assertLiveNFsStay(t, before, d.Placement)
	if d.Placement.ModeOf(packed) != route.Parallel {
		t.Errorf("%s lost its parallel mode", packed)
	}
}

// TestUpdateNamesTheNFsItCannotPlace: when the solve for the NFs an
// update introduces fails, the refusal names them, and the switch keeps
// its build.
func TestUpdateNamesTheNFsItCannotPlace(t *testing.T) {
	d, err := Deploy(natConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := d.Placement.Clone()
	u := d.keep(append(d.Config.Chains, route.Chain{PathID: 50, NFs: []string{"classifier", "nat"}, Weight: 0.1}))
	u.Pin = map[string]asic.PipeletID{"nat": {Pipeline: 9, Dir: asic.Egress}}
	err = d.Apply(u)
	if err == nil || !strings.Contains(err.Error(), "placing nat:") {
		t.Fatalf("Apply = %v, want a refusal naming nat", err)
	}
	if len(d.Config.Chains) != 3 || !maps.Equal(d.Placement.NF, before.NF) {
		t.Errorf("a refused update changed the deployment: %d chains, placement %v", len(d.Config.Chains), d.Placement.NF)
	}
}
