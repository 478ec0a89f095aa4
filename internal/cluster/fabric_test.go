package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

const wirePort = asic.PortID(10)

// deployAcrossTwoSwitches pins the §5 chain over a 2-switch fabric:
// switch 0 hosts classifier+fw, switch 1 hosts vgw+lb+router.
func deployAcrossTwoSwitches(t testing.TB) (*scenario.Scenario, *Fabric, *FabricDeployment) {
	t.Helper()
	s := scenario.MustNew()
	f, err := NewSpineFabric(s.Prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := NewFabricDeployment(f, s.Chains, s.NFs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fd.Pins = map[string]int{"classifier": 0, "fw": 0, "vgw": 1, "lb": 1, "router": 1}
	rep, err := NewReconciler(fd).Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blackholed) != 0 {
		t.Fatalf("pinned deployment blackholed %v", rep.Blackholed)
	}
	return s, f, fd
}

func TestFabricFullPathAcrossSwitches(t *testing.T) {
	s, f, fd := deployAcrossTwoSwitches(t)

	// First VIP packet: classifier+fw on switch 0, wire hop, LB miss on
	// switch 1.
	ft, err := f.Inject(0, scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if ft.Hops != 1 {
		t.Fatalf("hops = %d, want 1", ft.Hops)
	}
	if len(ft.CPUSwitch) != 1 || ft.CPUSwitch[0] != 1 {
		t.Fatalf("punt expected on switch 1, got %v", ft.CPUSwitch)
	}

	// Service the punt with switch 1's controller, then resend.
	if _, err := fd.Controllers[1].Poll(); err != nil {
		t.Fatal(err)
	}
	if s.LB.Sessions() != 1 {
		t.Fatalf("session not learned: %d", s.LB.Sessions())
	}
	ft2, err := f.Inject(0, scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if ft2.Dropped || len(ft2.Out) != 1 {
		t.Fatalf("second packet lost: dropped=%v out=%d", ft2.Dropped, len(ft2.Out))
	}
	if ft2.OutSwitch[0] != 1 || ft2.Out[0].Port != scenario.PortBackends {
		t.Errorf("exit = switch %d port %d, want switch 1 port %d",
			ft2.OutSwitch[0], ft2.Out[0].Port, scenario.PortBackends)
	}
	got := ft2.Out[0].Pkt
	if got.Valid(packet.HdrSFC) {
		t.Error("SFC header on the wire at fabric exit")
	}
	if got.IPv4.Dst == scenario.VIP {
		t.Error("VIP not rewritten by LB on switch 1")
	}
	// Latency: two switch traversals plus one DAC hop.
	minLat := 2*s.Prof.PortToPortLatency() + s.Prof.RecircOffChip
	if ft2.Latency < minLat {
		t.Errorf("latency = %v, want >= %v", ft2.Latency, minLat)
	}
}

func TestFabricPolicyAppliedUpstream(t *testing.T) {
	_, f, _ := deployAcrossTwoSwitches(t)
	// Denied traffic dies on switch 0 — it never crosses the wire.
	ft, err := f.Inject(0, scenario.PortClient, scenario.ClientTCP(22))
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Dropped {
		t.Fatal("denied packet not dropped")
	}
	if ft.Hops != 0 {
		t.Errorf("denied packet crossed %d wires", ft.Hops)
	}
}

func TestFabricMediumAndBasicPaths(t *testing.T) {
	_, f, _ := deployAcrossTwoSwitches(t)

	// Medium path: VXLAN encap happens on switch 1.
	ft, err := f.Inject(0, scenario.PortClient, scenario.TenantBound())
	if err != nil {
		t.Fatal(err)
	}
	if ft.Dropped || len(ft.Out) != 1 {
		t.Fatalf("medium path lost: %+v", ft)
	}
	if !ft.Out[0].Pkt.Valid(packet.HdrVXLAN) {
		t.Error("no VXLAN encap at fabric exit")
	}
	if ft.Out[0].Port != scenario.PortVTEP {
		t.Errorf("exit port = %d", ft.Out[0].Port)
	}

	// Basic path: classifier on 0, router on 1.
	ft, err = f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if ft.Dropped || len(ft.Out) != 1 || ft.Out[0].Port != scenario.PortUpstream {
		t.Fatalf("basic path lost: %+v", ft)
	}
	if ft.Hops != 1 {
		t.Errorf("basic path hops = %d", ft.Hops)
	}
}

func TestFabricValidation(t *testing.T) {
	s := scenario.MustNew()
	if _, err := NewFabric(s.Prof, 0); err == nil {
		t.Error("empty fabric accepted")
	}
	f, _ := NewFabric(s.Prof, 2)
	if err := f.Connect(0, 999, 1, 3); err == nil {
		t.Error("invalid wire port accepted")
	}
	if err := f.Connect(0, 10, 5, 3); err == nil {
		t.Error("wire to missing switch accepted")
	}
	if err := f.Connect(0, 10, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(0, 10, 1, 4); err == nil {
		t.Error("double wiring accepted")
	}
	if _, err := f.Inject(7, 0, scenario.InternetBound()); err == nil {
		t.Error("inject on missing switch accepted")
	}
	// A deployment with NF implementations refuses a chain naming one it
	// lacks, as SetChains does; a model deployment has none to check.
	chains := []route.Chain{{PathID: 1, NFs: []string{"fw", "nope"}, Weight: 1}}
	if _, err := NewFabricDeployment(f, chains, s.NFs, nil); err == nil || !strings.Contains(err.Error(), `unknown NF "nope"`) {
		t.Errorf("a chain naming an unimplemented NF was accepted: %v", err)
	}
	if _, err := NewFabricDeployment(f, chains, nil, nil); err != nil {
		t.Errorf("a model deployment refused its chain: %v", err)
	}
}

// Pins that would pull a chain back against the only wire's direction
// are a placement outcome, not a deploy error: every chain is reported
// blackholed with a reason and nothing is delivered — also when the
// pins arrive after a deploy, whose build the entry switch must not keep
// running (it did, delivering every path, when the round left a plan of
// no switch uninstalled).
func TestPinsAgainstTheWireBlackhole(t *testing.T) {
	for _, deployFirst := range []bool{false, true} {
		s := scenario.MustNew()
		f, err := NewSpineFabric(s.Prof, 2) // one wire, 0 -> 1
		if err != nil {
			t.Fatal(err)
		}
		fd, err := NewFabricDeployment(f, s.Chains, s.NFs, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, deployed := NewReconciler(fd), 0
		if deployFirst {
			if _, err := rec.Reconcile(); err != nil {
				t.Fatal(err)
			}
			deployed = probeAll(t, f) // the full path's first packet punts
		}
		fd.Pins = map[string]int{"classifier": 1, "fw": 1, "vgw": 0, "lb": 0, "router": 0}
		rep, err := rec.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Blackholed) != len(s.Chains) || len(fd.Routes) != 0 {
			t.Fatalf("backwards pins placed: routes %v, blackholed %v", fd.Routes, rep.Blackholed)
		}
		for id, reason := range rep.Blackholed {
			if reason == "" {
				t.Errorf("chain %d blackholed without a reason", id)
			}
		}
		if got := probeAll(t, f); got != 0 {
			t.Errorf("deployed first %v: %d path(s) delivered through an unplaceable deployment", deployFirst, got)
		}
		if !deployFirst {
			continue
		}
		// Unpinned, the next round deploys the entry afresh.
		fd.Pins = nil
		if rep, err := rec.Reconcile(); err != nil || len(rep.Blackholed) != 0 || probeAll(t, f) != deployed {
			t.Errorf("unpinned round: %v, blackholed %v, or fewer than the %d paths the deploy delivered", err, rep.Blackholed, deployed)
		}
	}
}

func TestFabricTelemetrySplit(t *testing.T) {
	_, f, fd := deployAcrossTwoSwitches(t)
	for i := 0; i < 4; i++ {
		if _, err := f.Inject(0, scenario.PortClient, scenario.InternetBound()); err != nil {
			t.Fatal(err)
		}
	}
	// Classifier executions counted on switch 0, router on switch 1.
	if got := fd.installed[0].Res.Composer.Telemetry().NFExecutions("classifier"); got != 4 {
		t.Errorf("switch 0 classifier executions = %d", got)
	}
	if got := fd.installed[1].Res.Composer.Telemetry().NFExecutions("router"); got != 4 {
		t.Errorf("switch 1 router executions = %d", got)
	}
	if got := fd.installed[0].Res.Composer.Telemetry().NFExecutions("router"); got != 0 {
		t.Errorf("router ran on switch 0: %d", got)
	}
}

// TestFabricReadersTakeNoLock holds the writer mutex: a probe, a dry-run
// round, the placement graph and every health and wiring reader must
// still return, because each loads one published generation.
func TestFabricReadersTakeNoLock(t *testing.T) {
	_, f, fd, rec := newSpineDeployment(t, 4)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := f.Inject(0, scenario.PortClient, scenario.InternetBound())
		if _, perr := fd.Plan(fd.Chains); err == nil {
			err = perr
		}
		f.PlacementGraph()
		f.SwitchHealth(1)
		f.AliveSwitches()
		f.Wires()
		f.LinkHealth(0, 10)
		f.Wired(0, 10)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a fabric reader waited for the writer mutex")
	}
}

// TestFabricProbesRaceWriters: two goroutines probe the installed chains
// while a third kills, revives, cuts, restores, swaps the wire hook and
// builds placement graphs. Each journey runs on the generation it
// loaded, so every one is delivered, punted, or dropped with a reason.
// Run under -race.
func TestFabricProbesRaceWriters(t *testing.T) {
	_, f, _, rec := newSpineDeployment(t, 4)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	destroy := func(int, asic.PortID, *packet.Parsed) (*packet.Parsed, bool) { return nil, false }
	stop := make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		var err error
		for i := 0; err == nil; i++ {
			select {
			case <-stop:
				writer <- nil
				return
			default:
			}
			sw := 1 + i%3
			err = errors.Join(f.KillSwitch(sw), f.CutLink(0, 10))
			f.SetWireHook(destroy)
			f.PlacementGraph()
			err = errors.Join(err, f.ReviveSwitch(sw), f.RestoreLink(0, 10))
			f.SetWireHook(nil)
		}
		writer <- err
	}()
	var wg sync.WaitGroup
	outcomes := make([]map[string]int, 2)
	for g := range outcomes {
		outcomes[g] = map[string]int{}
		wg.Add(1)
		go func(seen map[string]int) {
			defer wg.Done()
			for i, prs := 0, scenario.Probes(); i < 300; i++ {
				pr := prs[i%len(prs)]
				ft, err := f.Inject(0, pr.Port, pr.Packet())
				switch {
				case err != nil:
					seen[err.Error()]++
				case pr.Verify(ft.Out) == nil:
					seen["delivered"]++
				case len(ft.CPUSwitch) > 0:
					seen["punted"]++
				case len(ft.DropReasons) > 0:
					seen["dropped with a reason"]++
				default:
					seen[fmt.Sprintf("silent: out %v dropped %v", ft.Out, ft.Dropped)]++
				}
			}
		}(outcomes[g])
	}
	wg.Wait()
	close(stop)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	for _, seen := range outcomes {
		for what, n := range seen {
			if what != "delivered" && what != "punted" && what != "dropped with a reason" {
				t.Errorf("%d journey(s): %s", n, what)
			}
		}
		t.Logf("journeys: %v", seen)
	}
}
