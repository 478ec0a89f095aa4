package core

import (
	"fmt"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

func TestAddChainLive(t *testing.T) {
	cfg := edgeConfig()
	s := scenario.MustNew()
	// Add a NAT to the NF pool for the new chain, reusing the existing
	// deployment's other NFs.
	nat := nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1024)
	cfg.NFs = append(cfg.NFs, nat)
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Verify traffic works before the upgrade.
	tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("pre-upgrade traffic broken: %v %+v", err, tr)
	}

	// Live-add a chain: classifier → nat → router, steered by a new
	// classifier rule for outbound tenant traffic.
	newChain := route.Chain{
		PathID: 40, NFs: []string{"classifier", "nat", "router"}, Weight: 0.1, ExitPipeline: 0,
	}
	if err := d.AddChain(newChain); err != nil {
		t.Fatalf("AddChain: %v", err)
	}
	if len(d.Chains) != 4 {
		t.Errorf("chain reports = %d, want 4", len(d.Chains))
	}
	if _, ok := d.Placement.Of("nat"); !ok {
		t.Error("new NF not placed")
	}
	if err := s.Classifier.AddRule(nf.ClassRule{
		SrcIP: packet.IP4{10, 0, 9, 0}, SrcMask: packet.IP4{255, 255, 255, 0},
		Priority: 40, Path: 40, InitialIndex: 3,
	}); err != nil {
		t.Fatal(err)
	}
	// Note: s.Classifier above is a *different* instance; steer through
	// the deployed one.
	deployedClassifier := d.Config.NFs.ByName("classifier").(*nf.Classifier)
	if err := deployedClassifier.AddRule(nf.ClassRule{
		SrcIP: packet.IP4{10, 0, 9, 0}, SrcMask: packet.IP4{255, 255, 255, 0},
		Priority: 40, Path: 40, InitialIndex: 3,
	}); err != nil {
		t.Fatal(err)
	}

	// New-path traffic: NAT miss punts; controller allocates; reinject
	// translates.
	pkt := packet.NewTCP(packet.TCPOpts{
		Src: packet.IP4{10, 0, 9, 5}, Dst: packet.IP4{8, 8, 8, 8},
		SrcPort: 1234, DstPort: 80, DstMAC: scenario.GatewayMAC,
	})
	tr, err = d.Inject(scenario.PortClient, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped || len(tr.Out) != 1 {
		t.Fatalf("post-upgrade NAT path broken: dropped=%v(%s) out=%d path=%s",
			tr.Dropped, tr.DropReason, len(tr.Out), tr.Path())
	}
	if got := tr.Out[0].Pkt.IPv4.Src; got != (packet.IP4{192, 0, 2, 1}) {
		t.Errorf("NAT not applied: src=%s", got)
	}

	// Old paths still work.
	tr, err = d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("old path broken after upgrade: %v %+v", err, tr)
	}
}

func TestAddChainValidation(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddChain(route.Chain{PathID: scenario.PathFull, NFs: []string{"classifier"}}); err == nil {
		t.Error("duplicate path ID accepted")
	}
	if err := d.AddChain(route.Chain{PathID: 50, NFs: []string{"classifier", "ghost"}}); err == nil {
		t.Error("chain with unknown NF accepted")
	}
	if err := d.AddChain(route.Chain{PathID: 0, NFs: []string{"classifier"}}); err == nil {
		t.Error("invalid chain accepted")
	}
}

func TestRemoveChainLive(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Remove the full path: fw and lb become unused and are unplaced.
	if err := d.RemoveChain(scenario.PathFull); err != nil {
		t.Fatal(err)
	}
	if len(d.Chains) != 2 {
		t.Errorf("chains = %d, want 2", len(d.Chains))
	}
	if _, ok := d.Placement.Of("fw"); ok {
		t.Error("unused NF fw still placed")
	}
	if _, ok := d.Placement.Of("lb"); ok {
		t.Error("unused NF lb still placed")
	}
	// Remaining paths still deliver.
	tr, err := d.Inject(scenario.PortClient, scenario.TenantBound())
	if err != nil || tr.Dropped {
		t.Fatalf("medium path broken after removal: %v", err)
	}
	tr, err = d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("basic path broken after removal: %v", err)
	}
	// Traffic for the removed path is punted (unknown path).
	tr, err = d.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CPU) == 0 && !tr.Dropped {
		t.Errorf("removed-path traffic still forwarded: %+v", tr.Out)
	}
}

func TestRemoveChainValidation(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveChain(9999); err == nil {
		t.Error("removal of unknown chain accepted")
	}
	d.RemoveChain(scenario.PathFull)
	d.RemoveChain(scenario.PathMedium)
	if err := d.RemoveChain(scenario.PathBasic); err == nil {
		t.Error("removal of last chain accepted")
	}
}

func TestHandlePortDownLoopback(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 32; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := d.LoopbackGbps()
	rep, err := d.HandlePortDown(20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WasLoopback || rep.LostLoopbackGbps != 100 {
		t.Errorf("report = %+v", rep)
	}
	if d.LoopbackGbps() != before-100 {
		t.Errorf("loopback budget = %v, want %v", d.LoopbackGbps(), before-100)
	}
	// k=1: sustainable offered equals remaining loopback budget.
	if rep.SustainableOfferedGbps != rep.RemainingLoopbackGbps {
		t.Errorf("sustainable = %v, want %v", rep.SustainableOfferedGbps, rep.RemainingLoopbackGbps)
	}
	// Traffic still flows (recirc uses the dedicated port in the model).
	tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("traffic broken after loopback port failure: %v", err)
	}
}

func TestHandlePortDownStaticExit(t *testing.T) {
	cfg := edgeConfig()
	// Give one chain a static exit through port 5.
	cfg.Chains = append([]route.Chain(nil), cfg.Chains...)
	cfg.Chains[2].StaticExitPort = 5
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.HandlePortDown(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AffectedChains) != 1 || rep.AffectedChains[0] != scenario.PathBasic {
		t.Errorf("AffectedChains = %v", rep.AffectedChains)
	}
}

func TestHandlePortDownValidation(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandlePortDown(asic.RecircPort(0)); err == nil {
		t.Error("recirc port failure accepted")
	}
	if _, err := d.HandlePortDown(999); err == nil {
		t.Error("invalid port accepted")
	}
}

func TestP4SourceEmission(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := d.P4Source()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"parser dejavu_parser",
		"control ingress_0_sequential",
		"control egress_1_sequential",
		"lb__lb_session",
		"branching",
	} {
		if !containsStr(src, want) {
			t.Errorf("P4 source missing %q", want)
		}
	}
	// The source must update after a chain change.
	if err := d.RemoveChain(scenario.PathFull); err != nil {
		t.Fatal(err)
	}
	src2, err := d.P4Source()
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(src2, "lb__lb_session") {
		t.Error("removed NF's tables still in emitted source")
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }

func TestLoopbackSpreading(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 20; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Many basic-path packets: each recirculates once via pipeline 1's
	// loopback pool. Traffic must spread over all four ports.
	for i := 0; i < 40; i++ {
		tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
		if err != nil || tr.Dropped {
			t.Fatalf("packet %d lost: %v", i, err)
		}
	}
	used := 0
	for p := asic.PortID(16); p < 20; p++ {
		if d.Switch.Stats(p).RxPackets.Load() > 0 {
			used++
		}
	}
	if used != 4 {
		t.Errorf("loopback traffic spread over %d/4 ports", used)
	}
	// The dedicated recirc port should be idle (pool takes precedence).
	if got := d.Switch.Stats(asic.RecircPort(1)).RxPackets.Load(); got != 0 {
		t.Errorf("dedicated recirc port used %d times despite pool", got)
	}

	// After the pool's ports fail, recirculation falls back to the
	// dedicated port and traffic keeps flowing.
	for p := asic.PortID(16); p < 20; p++ {
		if _, err := d.HandlePortDown(p); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("traffic broken after pool drained: %v", err)
	}
	if got := d.Switch.Stats(asic.RecircPort(1)).RxPackets.Load(); got == 0 {
		t.Error("dedicated recirc port not used as fallback")
	}
}

// DV005 decides every (path, index) through the branching's view, so
// linting an installed deployment leaves the loopback rotation where
// live traffic left it, and so does the lint of a build whose routing
// stage reuses the installed branching.
func TestLintLeavesLoopbackRotation(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 20; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Inject(scenario.PortClient, scenario.InternetBound()); err != nil {
		t.Fatal(err)
	}
	rotation := func() (out []uint64) {
		for i := range d.loops.rr {
			out = append(out, d.loops.rr[i].Load())
		}
		return out
	}
	before := fmt.Sprint(rotation())
	if rep := lint.AnalyzeDeployment(d.installed.Res.Dep); rep.HasErrors() {
		t.Fatalf("scenario lints with errors:\n%s", rep)
	}
	if res, _, err := d.PlanReconfigure(cfg.Chains); err != nil || res.RoutingRebuilt {
		t.Fatalf("dry run of the installed chains: routing rebuilt %v, %v", res != nil && res.RoutingRebuilt, err)
	}
	if after := fmt.Sprint(rotation()); after != before {
		t.Errorf("linting moved the loopback rotation from %s to %s", before, after)
	}
}

func TestLoopbackSpreadingSurvivesUpdate(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 20; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveChain(scenario.PathFull); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := d.Inject(scenario.PortClient, scenario.InternetBound()); err != nil {
			t.Fatal(err)
		}
	}
	used := 0
	for p := asic.PortID(16); p < 20; p++ {
		if d.Switch.Stats(p).RxPackets.Load() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("after update, loopback spread over %d ports", used)
	}
}

// TestSwapRollbackOnPostInstallFailure forces swap to fail AFTER the
// new programs were installed on the switch and proves the deployment
// rolls the switch back: the old chain set still forwards end-to-end.
func TestSwapRollbackOnPostInstallFailure(t *testing.T) {
	cfg := edgeConfig()
	nat := nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1024)
	cfg.NFs = append(cfg.NFs, nat)
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Forced post-commit failure: InstallOn has already loaded the new
	// programs when this hook runs.
	installed := false
	d.Controller.VerifyCommit = func() error {
		installed = true
		return fmt.Errorf("forced post-install validation failure")
	}
	chainsBefore := len(d.Chains)
	costBefore := d.Cost

	err = d.AddChain(route.Chain{PathID: 40, NFs: []string{"classifier", "nat", "router"}, Weight: 0.1, ExitPipeline: 0})
	if err == nil {
		t.Fatal("swap succeeded despite forced failure")
	}
	if !installed {
		t.Fatal("post-install hook never ran — failure was not post-commit")
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("error does not report rollback: %v", err)
	}

	// Bookkeeping untouched.
	if len(d.Chains) != chainsBefore {
		t.Errorf("chain reports = %d, want %d", len(d.Chains), chainsBefore)
	}
	if d.Cost != costBefore {
		t.Errorf("cost mutated: %+v -> %+v", costBefore, d.Cost)
	}
	if _, ok := d.Placement.Of("nat"); ok {
		t.Error("failed chain's NF left in placement")
	}

	// The switch runs the OLD programs again: all three original
	// chains still forward end-to-end, checked by the §5 probes once
	// the full path's first packet has punted and been learnt.
	d.Controller.VerifyCommit = nil
	probes := scenario.Probes()
	if tr, err := d.Switch.Inject(probes[0].Port, probes[0].Packet()); err != nil || len(tr.CPU) != 1 {
		t.Fatalf("full path after rollback: first packet did not punt (err=%v)", err)
	}
	if _, err := d.Controller.Poll(); err != nil {
		t.Fatal(err)
	}
	for _, pr := range probes {
		tr, err := d.Switch.Inject(pr.Port, pr.Packet())
		if err != nil {
			t.Fatalf("probe %s after rollback: %v", pr.Name, err)
		}
		if err := pr.Verify(tr.Out); err != nil {
			t.Errorf("old chains broken after rollback: %v (path %s)", err, tr.Path())
		}
	}

	// And the deployment is still updatable: the same chain now
	// installs cleanly.
	if err := d.AddChain(route.Chain{PathID: 40, NFs: []string{"classifier", "nat", "router"}, Weight: 0.1, ExitPipeline: 0}); err != nil {
		t.Fatalf("deployment wedged after rollback: %v", err)
	}
}

func TestHandlePortDownRepeatRejected(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 20; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := d.Capacity.TotalPorts
	if _, err := d.HandlePortDown(18); err != nil {
		t.Fatal(err)
	}
	if d.Capacity.TotalPorts != total-1 {
		t.Fatalf("TotalPorts = %d, want %d", d.Capacity.TotalPorts, total-1)
	}
	// The repeat must be rejected and must NOT decrement again.
	if _, err := d.HandlePortDown(18); err == nil {
		t.Fatal("second HandlePortDown for the same port accepted")
	}
	if d.Capacity.TotalPorts != total-1 {
		t.Errorf("TotalPorts double-decremented: %d, want %d", d.Capacity.TotalPorts, total-1)
	}
	// Same for a non-loopback port.
	if _, err := d.HandlePortDown(5); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandlePortDown(5); err == nil {
		t.Error("repeat failure of front-panel port accepted")
	}
	if d.Capacity.TotalPorts != total-2 {
		t.Errorf("TotalPorts = %d, want %d", d.Capacity.TotalPorts, total-2)
	}
	if got := d.DeadPorts(); len(got) != 2 || got[0] != 5 || got[1] != 18 {
		t.Errorf("DeadPorts = %v", got)
	}
}

func TestHandlePortUpRestoresLoopback(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 20; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := d.LoopbackGbps()
	totalBefore := d.Capacity.TotalPorts

	// Down → up → down must be symmetric at every step.
	if _, err := d.HandlePortDown(17); err != nil {
		t.Fatal(err)
	}
	rep, err := d.HandlePortUp(17)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RestoredLoopback || rep.RestoredLoopbackGbps != 100 {
		t.Errorf("up report = %+v", rep)
	}
	if d.LoopbackGbps() != before {
		t.Errorf("loopback budget = %v, want %v restored", d.LoopbackGbps(), before)
	}
	if d.Capacity.TotalPorts != totalBefore {
		t.Errorf("TotalPorts = %d, want %d restored", d.Capacity.TotalPorts, totalBefore)
	}
	if d.Capacity.LoopbackPorts != 4 {
		t.Errorf("LoopbackPorts = %d, want 4", d.Capacity.LoopbackPorts)
	}
	if d.Switch.LoopbackModeOf(17) != asic.LoopbackOnChip {
		t.Error("switch loopback mode not restored")
	}
	// The port is back in the recirculation rotation: with all four
	// pool ports alive again, sustained traffic touches port 17.
	for i := 0; i < 16; i++ {
		if _, err := d.Inject(scenario.PortClient, scenario.InternetBound()); err != nil {
			t.Fatal(err)
		}
	}
	if d.Switch.Stats(17).RxPackets.Load() == 0 {
		t.Error("recovered port sees no recirculation traffic")
	}

	// Second down works again after recovery.
	if _, err := d.HandlePortDown(17); err != nil {
		t.Fatalf("down after up rejected: %v", err)
	}
	if d.LoopbackGbps() != before-100 {
		t.Errorf("loopback budget after re-down = %v, want %v", d.LoopbackGbps(), before-100)
	}
	// Up of a port that never went down is rejected.
	if _, err := d.HandlePortUp(3); err == nil {
		t.Error("HandlePortUp on healthy port accepted")
	}
	// Up of a plain (non-loopback) port restores only external capacity.
	if _, err := d.HandlePortDown(5); err != nil {
		t.Fatal(err)
	}
	rep, err = d.HandlePortUp(5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoredLoopback {
		t.Error("plain port reported loopback restore")
	}
}
