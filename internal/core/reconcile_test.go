package core

import (
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/scenario"
)

func chaosDeployment(t *testing.T) (*Deployment, []scenario.Probe) {
	t.Helper()
	cfg, probes, err := EdgeChaosConfig()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, probes
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

// TestReconcilerRepointsStaticExit kills the static exit port and
// requires the reconciler to move the chain to the healthy spare, with
// traffic following.
func TestReconcilerRepointsStaticExit(t *testing.T) {
	d, probes := chaosDeployment(t)
	probe := findProbe(t, probes, 40)

	// Sanity: the chain exits port 30 before the failure.
	tr, err := d.Inject(probe.Port, probe.Packet())
	if err != nil || tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != 30 {
		t.Fatalf("pre-failure probe mishandled: err=%v trace=%+v", err, tr)
	}

	rec := NewReconciler(d, 0)
	rep, err := rec.HandleEvent(fault.Event{Tick: 1, Kind: fault.PortDown, Port: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Repointed[40]; got != 31 {
		t.Fatalf("chain 40 re-pointed to %d, want 31 (Repointed=%v)", got, rep.Repointed)
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
	// Traffic now exits the spare port.
	tr, err = d.Inject(probe.Port, probe.Packet())
	if err != nil || tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != 31 {
		t.Fatalf("post-repair probe mishandled: err=%v trace=%+v", err, tr)
	}
	// The re-pointed deployment stays lint-clean.
	if d.Lint.HasErrors() {
		t.Errorf("re-pointed deployment has lint errors:\n%s", d.Lint)
	}

	// Recovery: the port comes back; bookkeeping is restored, the chain
	// stays on its working exit (no needless swap).
	up, err := rec.HandleEvent(fault.Event{Tick: 2, Kind: fault.PortUp, Port: 30})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(up.Degradation.ByRule(RuleRCRecovered)); n != 1 {
		t.Errorf("RC005 findings = %d, want 1", n)
	}
	if len(d.DeadPorts()) != 0 {
		t.Errorf("dead ports after recovery: %v", d.DeadPorts())
	}
	if port, _ := staticExitOf(d, 40); port != 31 {
		t.Errorf("recovery moved the chain back to %d mid-traffic", port)
	}
}

// TestReconcilerBlackholeReported exhausts every healthy exit of the
// chain's pipeline: the reconciler must emit an RC004 error finding
// rather than silently leaving the chain pointed at a dead port.
func TestReconcilerBlackholeReported(t *testing.T) {
	d, _ := chaosDeployment(t)
	rec := NewReconciler(d, 0)
	// Port 31 is the only non-loopback spare in pipeline 1; kill it
	// first, then the static exit.
	if _, err := rec.HandleEvent(fault.Event{Tick: 1, Kind: fault.PortDown, Port: 31}); err != nil {
		t.Fatal(err)
	}
	rep, err := rec.HandleEvent(fault.Event{Tick: 2, Kind: fault.PortDown, Port: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repointed) != 0 {
		t.Errorf("re-pointed to a dead or loopback port: %v", rep.Repointed)
	}
	black := rep.Degradation.ByRule(RuleRCBlackhole)
	if len(black) != 1 || black[0].Severity != lint.SevError {
		t.Fatalf("RC004 error finding missing: %v", rep.Degradation)
	}
	if !rep.Degradation.HasErrors() {
		t.Error("unhealable failure not reported at error severity")
	}
}

// TestReconcilerCapacityDegradation drops loopback ports until the
// sustainable load falls below the offered load and requires an RC003
// degradation finding.
func TestReconcilerCapacityDegradation(t *testing.T) {
	d, _ := chaosDeployment(t)
	rec := NewReconciler(d, 1800)
	// 14 loopback ports + 2 dedicated = 1600 G over ~0.83 weighted
	// recircs → ~1900 G sustainable. One loopback loss keeps it above
	// 1800; the second dips below.
	rep1, err := rec.HandleEvent(fault.Event{Tick: 1, Kind: fault.PortDown, Port: 20})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep1.Degradation.ByRule(RuleRCCapacity)); n != 0 {
		t.Errorf("capacity flagged while still sustainable: %v", rep1.Degradation)
	}
	rep2, err := rec.HandleEvent(fault.Event{Tick: 2, Kind: fault.PortDown, Port: 24})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep2.Degradation.ByRule(RuleRCCapacity)); n == 0 {
		t.Fatalf("sustainable %.0f < offered 1800 not flagged: %v", rec.sustainableGbps(), rep2.Degradation)
	}
	// Degradation findings about capacity are warnings, never errors —
	// the deployment still forwards, just slower.
	if rep2.Degradation.HasErrors() {
		t.Errorf("capacity degradation reported as error:\n%s", rep2.Degradation)
	}
}

// TestReconcilerDuplicateAndUnknownEvents verifies duplicate failures
// degrade to informational notes instead of corrupting bookkeeping.
func TestReconcilerDuplicateAndUnknownEvents(t *testing.T) {
	d, _ := chaosDeployment(t)
	rec := NewReconciler(d, 0)
	if _, err := rec.HandleEvent(fault.Event{Tick: 1, Kind: fault.PortDown, Port: 20}); err != nil {
		t.Fatal(err)
	}
	before := d.Capacity.TotalPorts
	rep, err := rec.HandleEvent(fault.Event{Tick: 2, Kind: fault.PortDown, Port: 20})
	if err != nil {
		t.Fatal(err)
	}
	if d.Capacity.TotalPorts != before {
		t.Error("duplicate failure decremented capacity again")
	}
	if len(rep.Degradation.Findings) == 0 {
		t.Error("duplicate failure left no trace in the report")
	}
	// Upping a port that never went down is likewise a note, not a
	// crash.
	repUp, err := rec.HandleEvent(fault.Event{Tick: 3, Kind: fault.PortUp, Port: asic.PortID(9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(repUp.Degradation.Findings) == 0 {
		t.Error("bogus recovery left no trace in the report")
	}
	// Wire and table faults need no reconciliation.
	repWire, err := rec.HandleEvent(fault.Event{Tick: 4, Kind: fault.Corrupt, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(repWire.Actions) != 0 {
		t.Errorf("wire fault triggered healing actions: %v", repWire.Actions)
	}
}

// TestReconcilerOverloadFinding verifies a recirculation overload
// surfaces as a capacity warning with the window length.
func TestReconcilerOverloadFinding(t *testing.T) {
	d, _ := chaosDeployment(t)
	rec := NewReconciler(d, 0)
	rep, err := rec.HandleEvent(fault.Event{Tick: 1, Kind: fault.RecircOverload, Port: 17, Ticks: 3})
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.Degradation.ByRule(RuleRCCapacity)
	if len(fs) != 1 || fs[0].Severity != lint.SevWarn {
		t.Fatalf("overload finding missing: %v", rep.Degradation)
	}
}

// TestEdgeChaosConfigBaseline sanity-checks the chaos scenario itself:
// all four probes deliver on a healthy deployment, and the extra chain
// exits through its static port.
func TestEdgeChaosConfigBaseline(t *testing.T) {
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
