package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

func chaosDeployment(t *testing.T) (*Deployment, []scenario.Probe) {
	t.Helper()
	s, err := EdgeSoak(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	return d, s.Probes
}

// findProbe returns the probe exercising a path.
func findProbe(t *testing.T, probes []scenario.Probe, pathID uint16) scenario.Probe {
	t.Helper()
	for _, p := range probes {
		if p.PathID == pathID {
			return p
		}
	}
	t.Fatalf("no probe for path %d", pathID)
	return scenario.Probe{}
}

// portState sets the admin state of front-panel ports on a deployment's
// switch, as a fault injector or an operator would.
func portState(t *testing.T, d *Deployment, up bool, ports ...asic.PortID) {
	t.Helper()
	for _, p := range ports {
		if err := d.Switch.SetPortAdminState(p, up); err != nil {
			t.Fatal(err)
		}
	}
}

// reconcile runs one round and fails the test on an error.
func reconcile(t *testing.T, d *Deployment, offered float64) *ReconcileReport {
	t.Helper()
	rep, err := d.Reconcile(offered)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// exitOf injects a chain's probe and returns the port it left on.
func exitOf(t *testing.T, d *Deployment, probe scenario.Probe) asic.PortID {
	t.Helper()
	tr, err := d.Inject(probe.Port, probe.Packet())
	if err != nil || tr.Dropped || len(tr.Out) != 1 {
		t.Fatalf("probe %s mishandled: err=%v trace=%+v", probe.Name, err, tr)
	}
	return tr.Out[0].Port
}

// TestReconcilerRepointsStaticExit kills the static exit port and
// requires the round to move the chain to the healthy spare, with
// traffic following; a chain added during the outage keeps it there,
// and the chain returns to its declared exit once that port recovers.
func TestReconcilerRepointsStaticExit(t *testing.T) {
	d, probes := chaosDeployment(t)
	probe := findProbe(t, probes, 40)
	if port := exitOf(t, d, probe); port != 30 {
		t.Fatalf("pre-failure probe left on port %d, want 30", port)
	}

	portState(t, d, false, 30)
	rep := reconcile(t, d, 0)
	if got := rep.Repointed[40]; got != 31 || rep.Converged {
		t.Fatalf("chain 40 re-pointed to %d, want 31 (Repointed=%v, converged %v)", got, rep.Repointed, rep.Converged)
	}
	// The degradation report carries the port failure and the repair.
	if n := len(rep.Degradation.ByRule(RuleRCPortDown)); n != 1 {
		t.Errorf("RC001 findings = %d, want 1", n)
	}
	if n := len(rep.Degradation.ByRule(RuleRCRepoint)); n != 1 {
		t.Errorf("RC002 findings = %d, want 1", n)
	}
	if rep.Degradation.HasErrors() {
		t.Errorf("self-healed failure reported error findings:\n%s", rep.Degradation)
	}
	if port := exitOf(t, d, probe); port != 31 {
		t.Fatalf("post-repair probe left on port %d, want 31", port)
	}
	if d.Lint.HasErrors() {
		t.Errorf("re-pointed deployment has lint errors:\n%s", d.Lint)
	}
	// The declared intent is untouched: only Apply writes Config.
	if port := staticExitOf(d.Config.Chains, 40); port != 30 {
		t.Errorf("the round rewrote chain 40's declared exit to %d", port)
	}

	// A chain added during the outage is staged on the same port
	// health: chain 40 stays off the dead port.
	if err := d.AddChain(route.Chain{PathID: 41, NFs: []string{"classifier", "router"}, Weight: 0.1, ExitPipeline: 0}); err != nil {
		t.Fatal(err)
	}
	if port := exitOf(t, d, probe); port != 31 {
		t.Errorf("AddChain during the outage moved chain 40 to port %d", port)
	}
	if rep := reconcile(t, d, 0); !rep.Converged || len(rep.Actions) != 0 {
		t.Errorf("round after AddChain: converged %v, actions %v", rep.Converged, rep.Actions)
	}

	// Recovery: the port comes back, and so does the chain.
	portState(t, d, true, 30)
	up := reconcile(t, d, 0)
	if n := len(up.Degradation.ByRule(RuleRCRecovered)); n != 1 {
		t.Errorf("RC005 findings = %d, want 1", n)
	}
	if len(up.Repointed) != 0 || up.Converged {
		t.Errorf("recovery round: repointed %v, converged %v", up.Repointed, up.Converged)
	}
	if port := exitOf(t, d, probe); port != 30 {
		t.Errorf("after recovery chain 40 leaves on port %d, want its declared 30", port)
	}
}

// TestReconcilerBlackholeReported exhausts every healthy exit of the
// chain's pipeline: the round must emit an RC004 error finding rather
// than silently leaving the chain pointed at a dead port, and keeps
// emitting it while the chain has no exit.
func TestReconcilerBlackholeReported(t *testing.T) {
	d, _ := chaosDeployment(t)
	// Port 31 is the only non-loopback spare in pipeline 1; kill it
	// first, then the static exit.
	portState(t, d, false, 31)
	reconcile(t, d, 0)
	portState(t, d, false, 30)
	for round := 0; round < 2; round++ {
		rep := reconcile(t, d, 0)
		if len(rep.Repointed) != 0 {
			t.Errorf("round %d re-pointed to a dead or loopback port: %v", round, rep.Repointed)
		}
		black := rep.Degradation.ByRule(RuleRCBlackhole)
		if len(black) != 1 || black[0].Severity != lint.SevError || black[0].Where != "chain 40" {
			t.Fatalf("round %d: RC004 error finding missing: %v", round, rep.Degradation)
		}
	}
}

// TestReconcilerCapacityDegradation drops loopback ports until the
// sustainable load falls below the offered load and requires an RC003
// degradation finding.
func TestReconcilerCapacityDegradation(t *testing.T) {
	d, _ := chaosDeployment(t)
	// 14 loopback ports + 2 dedicated = 1600 G over ~0.83 weighted
	// recircs → ~1900 G sustainable. One loopback loss keeps it above
	// 1800; the second dips below.
	portState(t, d, false, 20)
	rep1 := reconcile(t, d, 1800)
	if n := len(rep1.Degradation.ByRule(RuleRCCapacity)); n != 0 {
		t.Errorf("capacity flagged while still sustainable: %v", rep1.Degradation)
	}
	portState(t, d, false, 24)
	rep2 := reconcile(t, d, 1800)
	if n := len(rep2.Degradation.ByRule(RuleRCCapacity)); n == 0 {
		t.Fatalf("sustainable %.0f < offered 1800 not flagged: %v", d.sustainableGbps(), rep2.Degradation)
	}
	// Degradation findings about capacity are warnings, never errors —
	// the deployment still forwards, just slower.
	if rep2.Degradation.HasErrors() {
		t.Errorf("capacity degradation reported as error:\n%s", rep2.Degradation)
	}
	// The scenario's placement is already minimal: nothing re-placed.
	if rep2.Replaced || len(rep2.Degradation.ByRule(RuleRCReplaced)) != 0 {
		t.Errorf("re-placed a minimal placement: %v", rep2.Degradation)
	}
}

// TestReconcilerDuplicateAndUnknownEvents replays duplicate and
// meaningless events through the chaos harness: a port failed twice is
// one failure, a port "recovering" that never went down is no change,
// and wire faults need no reconciliation.
func TestReconcilerDuplicateAndUnknownEvents(t *testing.T) {
	res, err := RunSoak(scripted(t, 4, 0,
		fault.Event{Tick: 1, Kind: fault.PortDown, Port: 20},
		fault.Event{Tick: 2, Kind: fault.PortDown, Port: 20},
		fault.Event{Tick: 3, Kind: fault.PortUp, Port: 9},
		fault.Event{Tick: 4, Kind: fault.Corrupt, Port: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated (capacity counted twice?):\n%s", res.Summary())
	}
	if n := len(res.Findings.ByRule(RuleRCPortDown)); n != 1 {
		t.Errorf("RC001 findings = %d, want 1 for one failed port", n)
	}
	if n := len(res.Findings.ByRule(RuleRCRecovered)); n != 0 {
		t.Errorf("RC005 findings = %d for a port that never went down", n)
	}
	for _, line := range res.Log {
		if strings.Contains(line, " heal: ") && !strings.HasPrefix(line, "t001") {
			t.Errorf("healing action after the first failure: %s", line)
		}
	}
}

// TestReconcilerOverloadFinding verifies a recirculation overload
// surfaces as a capacity warning with the window length.
func TestReconcilerOverloadFinding(t *testing.T) {
	res, err := RunSoak(scripted(t, 2, 0, fault.Event{Tick: 1, Kind: fault.RecircOverload, Port: 17, Ticks: 3}))
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Findings.ByRule(RuleRCCapacity)
	if len(fs) != 1 || fs[0].Severity != lint.SevWarn || fs[0].Where != "port 17" || !strings.Contains(fs[0].Message, "3 tick(s)") {
		t.Fatalf("overload finding missing: %v", res.Findings)
	}
}

// sameDeployment fails unless two deployments run the same state: the
// switch's loopback modes, the rotation, every installed chain's exit,
// the capacity bookkeeping, and the installed placement and program.
func sameDeployment(t *testing.T, what string, got, want *Deployment) {
	t.Helper()
	for p := 0; p < got.Config.Prof.TotalPorts(); p++ {
		if g, w := got.Switch.LoopbackModeOf(asic.PortID(p)), want.Switch.LoopbackModeOf(asic.PortID(p)); g != w {
			t.Errorf("%s: port %d loopback mode %v, want %v", what, p, g, w)
		}
	}
	if g, w := got.Switch.LoopbackPorts(), want.Switch.LoopbackPorts(); !slices.Equal(g, w) {
		t.Errorf("%s: rotation %v, want %v", what, g, w)
	}
	g, w := got.installed.Res, want.installed.Res
	if !route.EqualChains(g.Composer.Chains, w.Composer.Chains) {
		t.Errorf("%s: installed chains %+v, want %+v", what, g.Composer.Chains, w.Composer.Chains)
	}
	if got.Capacity != want.Capacity {
		t.Errorf("%s: capacity %+v, want %+v", what, got.Capacity, want.Capacity)
	}
	if !g.Placement.Equal(w.Placement) || len(route.Diff(g.Program, w.Program)) != 0 {
		t.Errorf("%s: installed placement or program differs from a fresh deployment's", what)
	}
}

// TestReconcileLevelTriggered replays random admin-state histories over
// EdgeSoak's flap ports, running a round after every few changes: the
// deployment each history leaves equals a fresh Deploy plus one round
// at the same port health, a second round is converged and writes
// nothing, and so is a round after a port went down and came back.
func TestReconcileLevelTriggered(t *testing.T) {
	flaps := []asic.PortID{30, 20, 24, 28}
	const offered = 1800                  // EdgeSoak's: two lost loopback ports degrade it
	fresh := make(map[string]*Deployment) // by the ports down
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _ := chaosDeployment(t)
		for i, n := 0, 4+rng.Intn(16); i < n; i++ {
			portState(t, d, rng.Intn(2) == 0, flaps[rng.Intn(len(flaps))])
			if rng.Intn(3) == 0 {
				reconcile(t, d, offered)
			}
		}
		reconcile(t, d, offered)
		var down []asic.PortID
		for _, p := range flaps {
			if !d.Switch.PortIsUp(p) {
				down = append(down, p)
			}
		}
		key := fmt.Sprint(down)
		if fresh[key] == nil {
			f, _ := chaosDeployment(t)
			portState(t, f, false, down...)
			reconcile(t, f, offered)
			fresh[key] = f
		}
		what := fmt.Sprintf("seed %d, ports %v down", seed, down)
		sameDeployment(t, what, d, fresh[key])

		was := d.Controller.Stats()
		if rep := reconcile(t, d, offered); !rep.Converged || len(rep.Actions) != 0 {
			t.Errorf("%s: second round not converged: %v", what, rep.Actions)
		}
		p := flaps[rng.Intn(len(flaps))]
		up := d.Switch.PortIsUp(p)
		portState(t, d, !up, p)
		portState(t, d, up, p)
		if rep := reconcile(t, d, offered); !rep.Converged || len(rep.Actions) != 0 {
			t.Errorf("%s: port %d flapped between rounds: %v", what, p, rep.Actions)
		}
		if now := d.Controller.Stats(); now != was {
			t.Errorf("%s: converged rounds wrote to the controller: %+v -> %+v", what, was, now)
		}
		sameDeployment(t, what+", after the converged rounds", d, fresh[key])
	}
}

// TestEdgeSoakBaseline sanity-checks the single-switch chaos scenario:
// all four probes deliver on a healthy deployment, and the extra chain
// exits through its static port.
func TestEdgeSoakBaseline(t *testing.T) {
	d, probes := chaosDeployment(t)
	if len(probes) != 4 || probes[3].PathID != 40 || probes[3].Exit != 30 {
		t.Fatalf("chaos probes = %+v, want the §5 suite plus chain 40 exiting port 30", probes)
	}
	for _, pr := range probes {
		tr, err := d.Inject(pr.Port, pr.Packet())
		if err != nil {
			t.Fatalf("probe %s: %v", pr.Name, err)
		}
		if tr.Dropped {
			t.Fatalf("probe %s dropped: %+v", pr.Name, tr)
		}
		if err := pr.Verify(tr.Out); err != nil {
			t.Error(err)
		}
	}
	if d.Lint.HasErrors() {
		t.Errorf("chaos scenario not lint-clean:\n%s", d.Lint)
	}
}
