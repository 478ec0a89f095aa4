package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// fabricDemand inflates every scenario NF to 8 stages (+2 framework =
// 10 units), so a 48-stage switch plans at most four NFs and the
// 5-NF edge-cloud chain set needs two switches.
func fabricDemand() map[string]int {
	d := make(map[string]int)
	for _, n := range []string{"classifier", "fw", "vgw", "lb", "router"} {
		d[n] = 8
	}
	return d
}

// newTestFabric wires the 3-switch spine: 0->1 and 1->2 on port 10,
// plus a skip wire 0->2 on port 11, so the death of switch 1 leaves a
// 2-switch path.
func newTestFabric(t *testing.T) (*scenario.Scenario, *Fabric, *FabricDeployment, *Reconciler) {
	t.Helper()
	return newSpineDeployment(t, 3)
}

// newSpineDeployment is newTestFabric over an n-switch spine.
func newSpineDeployment(t testing.TB, n int) (*scenario.Scenario, *Fabric, *FabricDeployment, *Reconciler) {
	t.Helper()
	s := scenario.MustNew()
	f, err := NewSpineFabric(s.Prof, n)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := NewFabricDeployment(f, s.Chains, s.NFs, fabricDemand())
	if err != nil {
		t.Fatal(err)
	}

	// Pre-install the LB session so the full path needs no punt.
	pkt := scenario.ClientTCP(443)
	ftuple, _ := pkt.FiveTuple()
	backend, err := s.LB.SelectBackend(scenario.VIP, ftuple.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LB.InstallSession(ftuple.Hash(), backend); err != nil {
		t.Fatal(err)
	}
	return s, f, fd, NewReconciler(fd)
}

// desired is a committing round's plan: planFor the deployment's chain
// set, remembered as the round remembers it.
func (fd *FabricDeployment) desired(st *fabricState) *fabricPlan {
	p := fd.planFor(st, fd.Chains)
	fd.remember(st, p)
	return p
}

// probeAll injects the three scenario paths and returns how many were
// delivered end-to-end.
func probeAll(t *testing.T, f *Fabric) int {
	t.Helper()
	delivered := 0
	for _, mk := range []func() *packet.Parsed{
		func() *packet.Parsed { return scenario.ClientTCP(443) },
		scenario.TenantBound,
		scenario.InternetBound,
	} {
		ft, err := f.Inject(0, scenario.PortClient, mk())
		if err != nil {
			t.Fatal(err)
		}
		if !ft.Dropped && len(ft.Out) == 1 {
			delivered++
		}
	}
	return delivered
}

func pathEquals(got []int, want ...int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// usedSwitches returns the sorted union of switches on the installed
// per-chain routes.
func usedSwitches(fd *FabricDeployment) []int {
	seen := make(map[int]bool)
	for _, r := range fd.Routes {
		for _, sw := range r.Path {
			seen[sw] = true
		}
	}
	out := make([]int, 0, len(seen))
	for sw := range seen {
		out = append(out, sw)
	}
	sort.Ints(out)
	return out
}

func TestReconcilerInitialDeploy(t *testing.T) {
	_, f, fd, rec := newTestFabric(t)
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged {
		t.Error("first reconcile reported converged with nothing installed")
	}
	if !pathEquals(usedSwitches(fd), 0, 1) {
		t.Fatalf("initial switches = %v, want [0 1]", usedSwitches(fd))
	}
	if len(fd.Routes) != 3 {
		t.Fatalf("want a route per chain, got %v", fd.Routes)
	}
	for id, r := range fd.Routes {
		var nfs int
		for _, seg := range r.Segments {
			nfs += len(seg)
		}
		if nfs == 0 || len(r.Segments) != len(r.Path) || len(r.Ports) != len(r.Path)-1 {
			t.Fatalf("chain %d route malformed: %+v", id, r)
		}
	}
	if len(fd.Blackholed) != 0 {
		t.Fatalf("chains blackholed on a healthy fabric: %v", fd.Blackholed)
	}
	if got := probeAll(t, f); got != 3 {
		t.Fatalf("delivered %d/3 paths after initial deploy", got)
	}
	// Second reconcile with no health change is a no-op.
	rep2, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Converged || len(rep2.Changed) != 0 {
		t.Error("steady-state reconcile reprogrammed switches")
	}
}

// committed reads the switch program transactions fd's rounds
// committed, initial deploy included.
func committed(fd *FabricDeployment) float64 {
	for _, f := range fd.Control.Gather() {
		if f.Name == "dejavu_fabric_replacements_total" {
			return f.Samples[0].Value
		}
	}
	return 0
}

func TestReconcilerRoutesAroundDeadSwitch(t *testing.T) {
	_, f, fd, rec := newTestFabric(t)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	before := committed(fd)

	if err := f.KillSwitch(1); err != nil {
		t.Fatal(err)
	}
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !pathEquals(usedSwitches(fd), 0, 2) {
		t.Fatalf("switches after switch 1 death = %v, want [0 2]", usedSwitches(fd))
	}
	if len(rep.Replaced) == 0 {
		t.Error("no chains reported re-placed after a hosting switch died")
	}
	if len(fd.Blackholed) != 0 {
		t.Fatalf("chains blackholed despite a surviving path: %v", fd.Blackholed)
	}
	if committed(fd) <= before {
		t.Error("re-placement not counted")
	}
	var sawDown, sawReplaced bool
	for _, fdg := range rep.Findings.Findings {
		switch fdg.Rule {
		case RuleFBSwitchDown:
			sawDown = true
		case RuleFBReplaced:
			sawReplaced = true
		}
	}
	if !sawDown || !sawReplaced {
		t.Errorf("missing FB001/FB003 findings: %+v", rep.Findings.Findings)
	}
	if got := probeAll(t, f); got != 3 {
		t.Fatalf("delivered %d/3 paths after re-placement", got)
	}

	// Revive: the reconciler folds switch 1 back in (lexicographically
	// smallest path wins).
	if err := f.ReviveSwitch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if !pathEquals(usedSwitches(fd), 0, 1) {
		t.Fatalf("switches after revive = %v, want [0 1]", usedSwitches(fd))
	}
	if got := probeAll(t, f); got != 3 {
		t.Fatalf("delivered %d/3 paths after recovery", got)
	}
}

// A cut wire refuses an unwired port, drops what crosses it with an
// attributable reason, shows up as FB002 in the next round's report, and
// the reconciler routes around it over the skip wire.
func TestReconcilerRoutesAroundCutLink(t *testing.T) {
	_, f, fd, rec := newTestFabric(t)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := f.CutLink(0, 12); err == nil {
		t.Error("cut a port with no wire")
	}
	if err := f.CutLink(0, 10); err != nil {
		t.Fatal(err)
	}
	// Still programmed over 0->1: the packet dies on the wire, with the
	// reason the no-silent-blackhole invariant reads.
	ft, err := f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Dropped || len(ft.DropReasons) != 1 || ft.DropReasons[0] != "wire 0:10 cut" {
		t.Fatalf("probe across the cut wire: dropped %v, reasons %v", ft.Dropped, ft.DropReasons)
	}
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	var fb002 bool
	for _, fdg := range rep.Findings.Findings {
		if fdg.Rule == RuleFBLinkDown && fdg.Where == "wire 0:10" {
			fb002 = true
		}
	}
	if !fb002 {
		t.Errorf("no FB002 for the cut wire: %+v", rep.Findings.Findings)
	}
	if !pathEquals(usedSwitches(fd), 0, 2) {
		t.Fatalf("switches after 0->1 cut = %v, want [0 2]", usedSwitches(fd))
	}
	if got := probeAll(t, f); got != 3 {
		t.Fatalf("delivered %d/3 paths after link cut", got)
	}
}

func TestReconcilerShedsUnplaceableChains(t *testing.T) {
	s, f, fd, rec := newTestFabric(t)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	// Kill switch 2 and cut 0->1: only switch 0 remains reachable. The
	// 5-NF full chain (50 units) cannot fit 48 stages; medium and basic
	// still can.
	if err := f.KillSwitch(2); err != nil {
		t.Fatal(err)
	}
	if err := f.CutLink(0, 10); err != nil {
		t.Fatal(err)
	}
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !pathEquals(usedSwitches(fd), 0) {
		t.Fatalf("switches = %v, want [0]", usedSwitches(fd))
	}
	if _, gone := fd.Blackholed[scenario.PathFull]; !gone || len(fd.Blackholed) != 1 {
		t.Fatalf("blackholed = %v, want exactly the full chain", fd.Blackholed)
	}
	var sawBlackhole bool
	for _, fdg := range rep.Findings.Findings {
		if fdg.Rule == RuleFBBlackhole && strings.Contains(fdg.Where, "10") {
			sawBlackhole = true
		}
	}
	if !sawBlackhole {
		t.Errorf("missing FB004 for chain 10: %+v", rep.Findings.Findings)
	}
	// Medium and basic still deliver; the full path must NOT.
	ft, err := f.Inject(0, scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Dropped && len(ft.Out) > 0 {
		t.Error("blackholed full chain delivered traffic")
	}
	for _, mk := range []func() *packet.Parsed{scenario.TenantBound, scenario.InternetBound} {
		ft, err := f.Inject(0, scenario.PortClient, mk())
		if err != nil {
			t.Fatal(err)
		}
		if ft.Dropped || len(ft.Out) != 1 {
			t.Errorf("surviving chain dropped: %+v", ft.DropReasons)
		}
	}

	// Restore everything: the full chain comes back with an FB005.
	if err := f.ReviveSwitch(2); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreLink(0, 10); err != nil {
		t.Fatal(err)
	}
	rep2, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Blackholed) != 0 {
		t.Fatalf("still blackholed after recovery: %v", fd.Blackholed)
	}
	var sawRestored bool
	for _, fdg := range rep2.Findings.Findings {
		if fdg.Rule == RuleFBRestored {
			sawRestored = true
		}
	}
	if !sawRestored {
		t.Errorf("missing FB005 after recovery: %+v", rep2.Findings.Findings)
	}
	if got := probeAll(t, f); got != 3 {
		t.Fatalf("delivered %d/3 paths after full recovery", got)
	}
	_ = s
}

// A pin that homes the classifier off the entry switch sheds every chain
// that uses it, each with an FB004 naming the pin, and delivers
// nothing; unpinned, every chain is routed again.
func TestReconcilerShedsClassifierPinnedOffEntry(t *testing.T) {
	s, f, fd, rec := newTestFabric(t)
	fd.Pins = map[string]int{"classifier": 1}
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Findings.ByRule(RuleFBBlackhole)
	for _, fdg := range fb {
		if !strings.Contains(fdg.Message, "classifier pinned to switch 1, off the entry switch 0") {
			t.Errorf("FB004 without the pin: %s", fdg.Message)
		}
	}
	if len(fb) != len(s.Chains) || len(fd.Routes) != 0 || probeAll(t, f) != 0 {
		t.Fatalf("pinned off the entry: %d FB004, routes %v", len(fb), fd.Routes)
	}
	fd.Pins = nil
	if rep, err := rec.Reconcile(); err != nil || len(rep.Blackholed) != 0 || len(fd.Routes) != len(s.Chains) {
		t.Fatalf("unpinned: %v, blackholed %v", err, rep.Blackholed)
	}
}

func TestReconcilerEntrySwitchDeadBlackholesAll(t *testing.T) {
	_, f, fd, rec := newTestFabric(t)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := f.KillSwitch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if len(fd.Blackholed) != 3 {
		t.Fatalf("blackholed = %v, want all three chains", fd.Blackholed)
	}
	ft, err := f.Inject(0, scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Dropped || len(ft.DropReasons) == 0 {
		t.Error("packet into a dead entry switch not attributably dropped")
	}
}

func TestReconcilerRetriesThroughFlakyDriver(t *testing.T) {
	_, f, fd, rec := newTestFabric(t)
	// Switch 1's control plane fails twice per write target before
	// recovering: the retrying driver must push the program through.
	inj := fault.NewInjector(1, fault.Schedule{
		{Tick: 1, Kind: fault.TableWriteFail, NF: "framework", Table: "pipelet_program", Failures: 2},
	})
	inj.Advance()
	fd.Drivers[1] = &fault.Driver{
		Applier: fault.NewFlakyApplier(fd.Controllers[1], inj),
		Sleep:   func(time.Duration) {},
	}
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if got := fd.Drivers[1].Stats().Retries; got == 0 {
		t.Error("flaky control plane converged without driver retries")
	}
	if got := probeAll(t, f); got != 3 {
		t.Fatalf("delivered %d/3 paths through flaky control plane", got)
	}
}

// faultyApplier forwards writes to a controller, except that write
// number failAt (1-based) is rejected and after write number abortAfter
// the open transaction is lost, so the commit that follows fails.
type faultyApplier struct {
	ctrl                  *ctl.Controller
	n, failAt, abortAfter int
}

func (f *faultyApplier) Apply(w ctl.TableWrite) error {
	if f.n++; f.n == f.failAt {
		return errors.New("write rejected by switch driver")
	}
	err := f.ctrl.Apply(w)
	if f.n == f.abortAfter {
		f.ctrl.AbortProgram()
	}
	return err
}

// TestReconcilerRollsBackOnPostCommitFailure: a fault at any step of a
// switch's program transaction — a staged write, the commit, the
// post-commit seam — fails the round with the installed-state
// bookkeeping still describing the old routes, and the next round
// (fault cleared) converges.
func TestReconcilerRollsBackOnPostCommitFailure(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		arm        func(t *testing.T, fd *FabricDeployment) // the fault, on switch 0
	}{
		{"staged write", "switch 0 update rejected, switch untouched: write rejected", func(t *testing.T, fd *FabricDeployment) {
			fd.Drivers[0] = &fault.Driver{Applier: &faultyApplier{ctrl: fd.Controllers[0], failAt: 3}, MaxAttempts: 1}
		}},
		{"commit", "switch 0 update rejected, switch untouched: ctl: no open", func(t *testing.T, fd *FabricDeployment) {
			// Lose the transaction after its last write: switch 0's staged
			// entry diff and rebuilt pipelet programs.
			next, delta, err := fd.installed[0].Stage(fd.inputsAt(fd.desired(fd.Fabric.state.Load()), 0))
			if err != nil {
				t.Fatal(err)
			}
			writes := len(delta) + len(next.Res.ChangedFuncs)
			fd.Drivers[0] = &fault.Driver{Applier: &faultyApplier{ctrl: fd.Controllers[0], abortAfter: writes}, MaxAttempts: 1}
		}},
		{"post-commit seam", "switch 0 update rejected, switch rolled back to prior programs", func(t *testing.T, fd *FabricDeployment) {
			fd.Controllers[0].VerifyCommit = func() error {
				return &fault.TransientError{Op: "post-commit verify", Err: errTest}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, f, fd, rec := newTestFabric(t)
			if _, err := rec.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if err := f.KillSwitch(1); err != nil {
				t.Fatal(err)
			}
			drv := fd.Drivers[0]
			tc.arm(t, fd)
			if _, err := rec.Reconcile(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("reconcile through the fault: %v, want %q", err, tc.want)
			}
			// Installed-state bookkeeping must still describe the OLD routes.
			if !pathEquals(usedSwitches(fd), 0, 1) {
				t.Fatalf("installed routes mutated by failed reconcile: %v", fd.Routes)
			}
			// The next round (fault cleared) converges.
			fd.Drivers[0], fd.Controllers[0].VerifyCommit = drv, nil
			if _, err := rec.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if !pathEquals(usedSwitches(fd), 0, 2) {
				t.Fatalf("switches after retry = %v, want [0 2]", usedSwitches(fd))
			}
			if got := probeAll(t, f); got != 3 {
				t.Fatalf("delivered %d/3 paths after rollback recovery", got)
			}
		})
	}
}

var errTest = errors.New("injected post-commit failure")

// TestReconcilerCommitsAllOrNothing: a round whose commit fails on one
// switch restores every switch it already committed, last first, so
// each switch keeps running its installed build, the installed routes
// stand and probes follow them. The fault is a failed post-commit
// check on each switch in turn: the initial round commits switches 0
// and 1, and with switch 1 killed the next round commits 0 and 2. A
// switch with no prior build goes back to empty programs.
func TestReconcilerCommitsAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		fault int
		kill  bool // fault the round after switch 1 dies, not the initial one
	}{{0, true}, {1, false}, {2, true}} {
		t.Run(fmt.Sprintf("switch %d", tc.fault), func(t *testing.T) {
			_, f, fd, rec := newTestFabric(t)
			if tc.kill {
				if _, err := rec.Reconcile(); err != nil {
					t.Fatal(err)
				}
				if err := f.KillSwitch(1); err != nil {
					t.Fatal(err)
				}
			}
			if plan, err := fd.Plan(fd.Chains); err != nil || !slices.Contains(plan.Changed, tc.fault) || plan.Changed[0] != 0 {
				t.Fatalf("the round would commit %v, want switch 0 and %d: %v", plan.Changed, tc.fault, err)
			}
			routes, installed := fd.Routes, slices.Clone(fd.installed)
			fd.Controllers[tc.fault].VerifyCommit = func() error { return errTest }
			rep, err := rec.Reconcile()
			if err == nil || !strings.Contains(err.Error(), "rolled back") || len(rep.Changed) != 0 {
				t.Fatalf("reconcile through the fault: changed %v, %v", rep.Changed, err)
			}
			if !reflect.DeepEqual(fd.Routes, routes) {
				t.Errorf("routes %v, want the installed %v", fd.Routes, routes)
			}
			for s, sw := range f.Switches {
				var want any
				if res := installed[s].Res; res != nil {
					want = res.Dep.Runtime
				}
				if fd.installed[s] != installed[s] || sw.App() != want {
					t.Errorf("switch %d does not run its installed build", s)
				}
			}
			for _, pr := range scenario.Probes() {
				r, routed := fd.Routes[pr.PathID]
				ft, err := f.Inject(0, pr.Port, pr.Packet())
				if err != nil {
					t.Fatal(err)
				}
				if !routed {
					if len(ft.Out) != 0 {
						t.Errorf("%s probe with no installed route left switch %v", pr.Name, ft.OutSwitch)
					}
					continue
				}
				hops := len(ft.PerSwitch)
				delivered := len(ft.Out) == 1 && hops == len(r.Path) && ft.OutSwitch[0] == r.Path[hops-1]
				died := len(ft.Out) == 0 && hops < len(r.Path) &&
					slices.Contains(ft.DropReasons, fmt.Sprintf("switch %d dead", r.Path[hops]))
				if !delivered && !died {
					t.Errorf("%s probe strays from its route %v: %d switch(es), out %v on %v, drops %v",
						pr.Name, r.Path, hops, ft.Out, ft.OutSwitch, ft.DropReasons)
				}
			}
			// Once the fault clears, the next round converges.
			fd.Controllers[tc.fault].VerifyCommit = nil
			if _, err := rec.Reconcile(); err != nil || probeAll(t, f) != 3 {
				t.Errorf("the round after the fault: %v, or not every path delivered", err)
			}
		})
	}
}

// TestReconcilerConvergesPerChain: a link cut that re-routes only one
// chain reprograms only the switches whose programs actually changed;
// the other chain's exclusive switch is untouched.
func TestReconcilerConvergesPerChain(t *testing.T) {
	s := scenario.MustNew()
	f, err := NewSpineFabric(s.Prof, 3)
	if err != nil {
		t.Fatal(err)
	}
	chains := []route.Chain{
		{PathID: 40, NFs: []string{"fw"}, Weight: 0.5},
		{PathID: 41, NFs: []string{"lb"}, Weight: 0.4},
	}
	fd, err := NewFabricDeployment(f, chains, s.NFs, fabricDemand())
	if err != nil {
		t.Fatal(err)
	}
	// Pin the chains onto disjoint far switches so they branch: chain
	// 40 over 0-1, chain 41 over 0-2.
	fd.Pins = map[string]int{"fw": 1, "lb": 2}
	rec := NewReconciler(fd)
	if _, err := rec.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if !pathEquals(fd.Routes[40].Path, 0, 1) || !pathEquals(fd.Routes[41].Path, 0, 2) {
		t.Fatalf("pinned routes = %v", fd.Routes)
	}

	// Cut the 0->2 skip wire: chain 41 must re-route via switch 1;
	// chain 40's route is untouched.
	if err := f.CutLink(0, 11); err != nil {
		t.Fatal(err)
	}
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !pathEquals(fd.Routes[41].Path, 0, 1, 2) {
		t.Fatalf("chain 41 path = %v, want detour [0 1 2]", fd.Routes[41].Path)
	}
	if !pathEquals(fd.Routes[40].Path, 0, 1) {
		t.Fatalf("chain 40 path mutated: %v", fd.Routes[40].Path)
	}
	if len(rep.Replaced) != 1 || rep.Replaced[0] != 41 {
		t.Fatalf("Replaced = %v, want [41]", rep.Replaced)
	}
	// Switch 1 already forwarded lb toward switch 2 (per-destination
	// forwarding), and switch 2's program is identical — only the
	// entry switch's forwarding entry changed.
	if !pathEquals(rep.Changed, 0) {
		t.Fatalf("Changed = %v, want only the entry switch [0]", rep.Changed)
	}
}

// The dry run fails exactly where the reconcile does: a 13-stage NF
// fits a 48-unit switch, so the fabric placer homes it, but no 12-stage
// pipelet. Plan used to drop the error and report three healthy routes.
// Plan stages the switch builds too, so a program the build refuses
// (DV001: three 5-stage NFs declared at one stage each) is the same
// FB006 refusal from both; Plan used to approve it.
func TestPlanFailsWhereReconcileFails(t *testing.T) {
	_, _, fd, rec := newTestFabric(t)
	fd.StageDemand = map[string]int{"fw": 13}
	if plan, err := fd.Plan(fd.Chains); err == nil || !strings.Contains(err.Error(), `cannot fit NF "fw"`) {
		t.Fatalf("Plan: err = %v, plan %+v; want the pipelet-fit refusal", err, plan)
	}
	if _, err := rec.Reconcile(); err == nil || !strings.Contains(err.Error(), `cannot fit NF "fw"`) {
		t.Fatalf("Reconcile: err = %v; want the pipelet-fit refusal", err)
	}

	fd.StageDemand = fabricDemand()
	plan, err := fd.Plan(fd.Chains)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rec.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Switches, rep.Switches) || !reflect.DeepEqual(plan.Routes, rep.Routes) ||
		len(plan.Blackholed) != 0 || len(rep.Blackholed) != 0 {
		t.Errorf("plan %+v disagrees with the reconcile that followed: %+v", plan, rep)
	}

	fd = deepDeployment(t, 2, []int{5, 5, 5}, map[string]int{"a": 1, "b": 1, "c": 1})
	_, planErr := fd.Plan(fd.Chains)
	rep, err = NewReconciler(fd).Reconcile()
	if err == nil || !strings.Contains(err.Error(), "DV001") || fmt.Sprint(planErr) != err.Error() {
		t.Errorf("DV001: Plan: %v\nReconcile: %v\nwant the same DV001 refusal", planErr, err)
	}
}

// The §7 model through the one path: a chain that fits the entry never
// crosses a wire; a 20-NF chain of 10-unit NFs (four to a switch) fits
// no single switch, and over five back-to-back switches it spills
// across all of them at four crossings, with a latency estimate that
// covers five traversals and four DAC hops.
func TestPlanLongChainSpillsAcrossSwitches(t *testing.T) {
	prof := asic.Wedge100B()
	plan := func(switches int, c route.Chain, demand map[string]int) *ReconcileReport {
		t.Helper()
		f, err := NewFabric(prof, switches)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < switches; i++ {
			if err := f.Connect(i, wirePort, i+1, wirePort); err != nil {
				t.Fatal(err)
			}
		}
		fd, err := NewFabricDeployment(f, []route.Chain{c}, nil, demand)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fd.Plan(fd.Chains)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	short := route.Chain{PathID: 1, NFs: []string{"a", "b", "c"}, Weight: 1}
	if p := plan(2, short, nil); !pathEquals(p.Switches, 0) || p.Routes[1].CrossHops != 0 {
		t.Errorf("3-NF chain: switches %v, %d crossings; want the entry alone", p.Switches, p.Routes[1].CrossHops)
	}

	long := route.Chain{PathID: 1, Weight: 1}
	demand := make(map[string]int)
	for i := 0; i < 20; i++ {
		n := "nf" + string(rune('a'+i))
		long.NFs = append(long.NFs, n)
		demand[n] = 8
	}
	if p := plan(1, long, demand); len(p.Blackholed) != 1 || len(p.Routes) != 0 {
		t.Errorf("20x10-unit chain on one 48-stage switch: routes %v, blackholed %v", p.Routes, p.Blackholed)
	}
	p := plan(5, long, demand)
	if len(p.Blackholed) != 0 || !pathEquals(p.Switches, 0, 1, 2, 3, 4) || p.Routes[1].CrossHops != 4 {
		t.Fatalf("five switches: blackholed %v, switches %v, %d crossings", p.Blackholed, p.Switches, p.Routes[1].CrossHops)
	}
	if floor := 5*prof.PortToPortLatency() + 4*prof.RecircOffChip; p.Latency < floor {
		t.Errorf("latency %v below five traversals plus four DAC hops (%v)", p.Latency, floor)
	}
}
