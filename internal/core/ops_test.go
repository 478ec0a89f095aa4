package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
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
	portState(t, d, false, 20)
	rep := reconcile(t, d, 0)
	down := rep.Degradation.ByRule(RuleRCPortDown)
	if len(down) != 1 || down[0].Severity != lint.SevWarn || !strings.Contains(down[0].Message, "loopback=true") {
		t.Errorf("RC001 = %v, want one loopback-port warning", down)
	}
	if d.LoopbackGbps() != before-100 {
		t.Errorf("loopback budget = %v, want %v", d.LoopbackGbps(), before-100)
	}
	if d.Switch.LoopbackModeOf(20) != asic.LoopbackOff || slices.Contains(d.Switch.LoopbackPorts(), 20) {
		t.Error("dead port 20 still in loopback mode or in the rotation")
	}
	// k=1: sustainable offered equals remaining loopback budget.
	if d.sustainableGbps() != d.LoopbackGbps() {
		t.Errorf("sustainable = %v, want %v", d.sustainableGbps(), d.LoopbackGbps())
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
	portState(t, d, false, 5)
	rep := reconcile(t, d, 0)
	want := map[uint16]asic.PortID{scenario.PathBasic: 1} // pipeline 0's lowest healthy port
	if !maps.Equal(rep.Repointed, want) {
		t.Errorf("Repointed = %v, want %v", rep.Repointed, want)
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
	portState(t, d, false, 16, 17, 18, 19)
	reconcile(t, d, 0)
	tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil || tr.Dropped {
		t.Fatalf("traffic broken after pool drained: %v", err)
	}
	if got := d.Switch.Stats(asic.RecircPort(1)).RxPackets.Load(); got == 0 {
		t.Error("dedicated recirc port not used as fallback")
	}
}

// Linting an installed deployment, and the lint of a build whose
// routing stage reuses the installed branching, leave the loopback
// turn where live traffic left it: the packet after them takes the
// port after the one the packet before them took.
func TestLintLeavesLoopbackRotation(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 20; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// took injects one basic-path packet, which recirculates once, and
	// returns the loopback port whose TxPackets it moved.
	took := func() asic.PortID {
		t.Helper()
		var before []uint64
		for _, p := range cfg.LoopbackPorts {
			before = append(before, d.Switch.Stats(p).TxPackets.Load())
		}
		if tr, err := d.Inject(scenario.PortClient, scenario.InternetBound()); err != nil || tr.Dropped {
			t.Fatalf("basic-path packet lost: %v", err)
		}
		for i, p := range cfg.LoopbackPorts {
			if d.Switch.Stats(p).TxPackets.Load() != before[i] {
				return p
			}
		}
		t.Fatal("the packet took no loopback port")
		return 0
	}
	first := took()
	if rep := lint.AnalyzeDeployment(d.installed.Res.Dep, d.Config.Enter); rep.HasErrors() {
		t.Fatalf("scenario lints with errors:\n%s", rep)
	}
	if res, _, err := d.Plan(d.keep(cfg.Chains)); err != nil || !res.Info.Stage(pipeline.StageRouting).CacheHit {
		t.Fatalf("dry run of the installed chains rebuilt routing: %v", err)
	}
	if next := took(); next != first+1 {
		t.Errorf("after a lint the next packet took port %d, want %d, the port after %d", next, first+1, first)
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

// A port that stays down is one failure: later rounds neither count it
// again nor report it again.
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
	portState(t, d, false, 18)
	reconcile(t, d, 0)
	if d.Capacity.TotalPorts != total-1 {
		t.Fatalf("TotalPorts = %d, want %d", d.Capacity.TotalPorts, total-1)
	}
	// The repeat — the same admin state written again, then a round —
	// must change nothing and decrement nothing.
	portState(t, d, false, 18)
	if rep := reconcile(t, d, 0); !rep.Converged || len(rep.Degradation.Findings) != 0 {
		t.Errorf("repeat round: converged %v, findings %v", rep.Converged, rep.Degradation)
	}
	if d.Capacity.TotalPorts != total-1 {
		t.Errorf("TotalPorts double-decremented: %d, want %d", d.Capacity.TotalPorts, total-1)
	}
	// Same for a non-loopback port.
	portState(t, d, false, 5)
	if rep := reconcile(t, d, 0); len(rep.Degradation.ByRule(RuleRCPortDown)) != 1 {
		t.Errorf("port 5 failure: %v", rep.Degradation)
	}
	portState(t, d, false, 5)
	if rep := reconcile(t, d, 0); !rep.Converged {
		t.Errorf("repeat failure of front-panel port reported again: %v", rep.Degradation)
	}
	if d.Capacity.TotalPorts != total-2 {
		t.Errorf("TotalPorts = %d, want %d", d.Capacity.TotalPorts, total-2)
	}
	if d.Capacity.LoopbackPorts != 3 {
		t.Errorf("LoopbackPorts = %d, want 3", d.Capacity.LoopbackPorts)
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
	portState(t, d, false, 17)
	reconcile(t, d, 0)
	portState(t, d, true, 17)
	rep := reconcile(t, d, 0)
	if n := len(rep.Degradation.ByRule(RuleRCRecovered)); n != 1 || !slices.Contains(rep.Actions, "port 17 up: restored (loopback=true)") {
		t.Errorf("up round = %+v", rep)
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
	// The port is back in its pipeline's loopback turn, in port order:
	// with all four ports alive again, sustained traffic touches port 17.
	if got := d.Switch.LoopbackPorts(); !slices.Equal(got, cfg.LoopbackPorts) {
		t.Errorf("loopback ports = %v, want the declared %v", got, cfg.LoopbackPorts)
	}
	for i := 0; i < 16; i++ {
		if _, err := d.Inject(scenario.PortClient, scenario.InternetBound()); err != nil {
			t.Fatal(err)
		}
	}
	if d.Switch.Stats(17).RxPackets.Load() == 0 {
		t.Error("recovered port sees no recirculation traffic")
	}

	// Second down works again after recovery.
	portState(t, d, false, 17)
	reconcile(t, d, 0)
	if d.LoopbackGbps() != before-100 {
		t.Errorf("loopback budget after re-down = %v, want %v", d.LoopbackGbps(), before-100)
	}
	// Up of a port that never went down is no change.
	portState(t, d, true, 3)
	if rep := reconcile(t, d, 0); !rep.Converged {
		t.Errorf("healthy port 3 reported: %v", rep.Actions)
	}
	// Up of a plain (non-loopback) port restores only external capacity.
	portState(t, d, false, 5)
	reconcile(t, d, 0)
	portState(t, d, true, 5)
	if rep := reconcile(t, d, 0); !slices.Contains(rep.Actions, "port 5 up: restored (loopback=false)") {
		t.Errorf("plain port up round: %v", rep.Actions)
	}
}
