package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/scenario"
)

// runEdgeSoak runs EdgeSoak's scenario.
func runEdgeSoak(t *testing.T, seed int64, ticks, switches int) *SoakResult {
	t.Helper()
	s, err := EdgeSoak(seed, ticks, switches)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSoak(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// scripted is EdgeSoak's scenario for seed 1 replaying the given
// faults instead of its generated schedule.
func scripted(t *testing.T, ticks, switches int, faults ...fault.Event) Soak {
	t.Helper()
	s, err := EdgeSoak(1, ticks, switches)
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule = faults
	return s
}

// TestChaosSoak replays seeded random fault schedules over the
// edge-cloud scenario and requires every invariant to hold after every
// reconcile: no chain silently blackholed, capacity bookkeeping
// consistent with the switch's loopback state, and a lint-clean
// deployment. Three distinct seeds keep the coverage honest; CI runs
// this under -race.
func TestChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := runEdgeSoak(t, seed, 40, 0)
			if !res.OK() {
				t.Fatalf("seed %d violated invariants:\n%s", seed, res.Summary())
			}
			if res.Events == 0 {
				t.Errorf("seed %d: schedule fired no faults", seed)
			}
			if res.Probes == 0 || res.Delivered == 0 {
				t.Errorf("seed %d: no traffic verified (probes=%d delivered=%d)", seed, res.Probes, res.Delivered)
			}
			// Every probe must be accounted for.
			if res.Delivered+res.Dropped+res.Punted != res.Probes {
				t.Errorf("seed %d: %d probes but %d+%d+%d accounted", seed,
					res.Probes, res.Delivered, res.Dropped, res.Punted)
			}
			// Each reconcile left zero lint errors (a lint error is a
			// violation, checked above) and the degradation report never
			// invents error findings beyond RC004 blackholes.
			for _, f := range res.Findings.Findings {
				if !strings.HasPrefix(f.Rule, "RC") {
					t.Errorf("seed %d: degradation finding with non-reconciler rule %s", seed, f.Rule)
				}
			}
		})
	}
}

// TestChaosDeterministic runs the same seeded soak twice and requires
// byte-identical transcripts: the injector, reconciler and probes must
// be a pure function of the seed.
func TestChaosDeterministic(t *testing.T) {
	a, b := runEdgeSoak(t, 7, 30, 0), runEdgeSoak(t, 7, 30, 0)
	if !reflect.DeepEqual(a.Log, b.Log) {
		t.Fatalf("same seed diverged:\nrun1: %d lines\nrun2: %d lines", len(a.Log), len(b.Log))
	}
	if a.Events != b.Events || a.Repoints != b.Repoints || a.Delivered != b.Delivered {
		t.Errorf("summaries diverged: %+v vs %+v", a, b)
	}
	c := runEdgeSoak(t, 8, 30, 0)
	if reflect.DeepEqual(a.Log, c.Log) && a.Events > 0 {
		t.Error("different seeds produced identical transcripts")
	}
}

// TestChaosScriptedExitFailure pins the headline self-healing story:
// the static exit port dies mid-run, the round re-points the chain,
// and the probe keeps delivering — no invariant violations, the
// transcript shows the repair, and the chain returns to its declared
// exit when the port recovers.
func TestChaosScriptedExitFailure(t *testing.T) {
	res, err := RunSoak(scripted(t, 6, 0,
		fault.Event{Tick: 2, Kind: fault.PortDown, Port: 30},
		fault.Event{Tick: 5, Kind: fault.PortUp, Port: 30},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Summary())
	}
	if res.Repoints != 1 {
		t.Errorf("repoints = %d, want 1", res.Repoints)
	}
	// All probes delivered on every tick: 4 probes x 6 ticks.
	if res.Delivered != 24 {
		t.Errorf("delivered = %d, want 24 (4 probes x 6 ticks)", res.Delivered)
	}
	log := strings.Join(res.Log, "\n")
	if !strings.Contains(log, "t002 heal: chain 40 re-pointed to port 31") {
		t.Errorf("transcript missing the re-point action:\n%s", log)
	}
	// The chain follows its declared intent: off port 30 while it is
	// down, back on it once it recovers.
	for tick := 1; tick <= 6; tick++ {
		want := 30
		if tick >= 2 && tick < 5 {
			want = 31
		}
		if line := fmt.Sprintf("t%03d probe static-exit: delivered port %d", tick, want); !strings.Contains(log, line) {
			t.Errorf("transcript missing %q:\n%s", line, log)
		}
	}
}

// TestChaosFailedRoundRetries: a round whose commit exhausts the
// driver's retries does not end the soak. The tick logs the failed
// round and suppresses its probes; the next tick's round re-points the
// chain and converges, two ticks after the failure began.
func TestChaosFailedRoundRetries(t *testing.T) {
	res, err := RunSoak(scripted(t, 4, 0,
		fault.Event{Tick: 2, Kind: fault.PortDown, Port: 30},
		// One more failure than the driver's 4 attempts: the re-point's
		// branching write fails at tick 2 and once more at tick 3.
		fault.Event{Tick: 2, Kind: fault.TableWriteFail, NF: ctl.FrameworkNF, Table: ctl.BranchingTable, Failures: 5},
	))
	if err != nil {
		t.Fatalf("a failed round ended the soak: %v", err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Summary())
	}
	log := strings.Join(res.Log, "\n")
	for _, want := range []string{
		"t002 round failed: ",
		"t002 probe static-exit: suppressed, round failed",
		"t003 heal: chain 40 re-pointed to port 31",
		"t003 converged in 2 tick(s)",
		"t003 probe static-exit: delivered port 31",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("transcript missing %q:\n%s", want, log)
		}
	}
	if strings.Contains(log, "t002 probe static-exit: delivered") {
		t.Errorf("tick 2 probed after its round failed:\n%s", log)
	}
	if res.Reconciles != 4 || res.Convergences != 1 || res.MaxConvergeTicks != 2 || res.Repoints != 1 {
		t.Errorf("reconciles %d, convergences %d, max converge ticks %d, repoints %d; want 4, 1, 2, 1",
			res.Reconciles, res.Convergences, res.MaxConvergeTicks, res.Repoints)
	}
	// 4 probes on ticks 1, 3 and 4; none on tick 2.
	if res.Probes != 12 || res.Delivered != 12 {
		t.Errorf("probes %d, delivered %d; want 12, 12", res.Probes, res.Delivered)
	}
	if res.Driver.Failures != 1 {
		t.Errorf("driver failures = %d, want the one exhausted write", res.Driver.Failures)
	}
}

// TestChaosAppliesPortFlaps: the injector only reports a port flap; the
// single-switch target applies it to the switch's admin state.
func TestChaosAppliesPortFlaps(t *testing.T) {
	tg, err := newSwitchTarget(scripted(t, 2, 0), fault.NewInjector(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	d, r := tg.(*switchTarget).d, &SoakResult{Findings: lint.NewReport()}
	for _, ev := range []fault.Event{{Tick: 1, Kind: fault.PortDown, Port: 5}, {Tick: 2, Kind: fault.PortUp, Port: 5}} {
		if err := tg.apply(r, ev); err != nil {
			t.Fatal(err)
		}
		if up, want := d.Switch.PortIsUp(5), ev.Kind == fault.PortUp; up != want {
			t.Errorf("after %s: port 5 up = %v, want %v", ev, up, want)
		}
	}
	if err := tg.apply(r, fault.Event{Kind: fault.PortDown, Port: asic.PortCPU}); err == nil {
		t.Error("a flap of the CPU port applied without error")
	}
}

// TestChaosRefusesFaultsOneSwitchCannotApply: a schedule holding a
// fault the switch cannot apply is refused before tick 1, naming the
// event, instead of being counted as fired while nothing happens.
func TestChaosRefusesFaultsOneSwitchCannotApply(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  fault.Event
	}{
		{"flap on a port the switch lacks", fault.Event{Tick: 2, Kind: fault.PortDown, Port: 999}},
		{"corruption on a port the switch lacks", fault.Event{Tick: 3, Kind: fault.Corrupt, Port: 700}},
		{"overload on a port the switch lacks", fault.Event{Tick: 3, Kind: fault.RecircOverload, Port: 700}},
		{"flap on the CPU port", fault.Event{Tick: 2, Kind: fault.PortUp, Port: asic.PortCPU}},
		{"flap on a recirculation port", fault.Event{Tick: 2, Kind: fault.PortDown, Port: asic.RecircPort(0)}},
		{"switch kill", fault.Event{Tick: 2, Kind: fault.SwitchKill, Switch: 1}},
		{"link cut", fault.Event{Tick: 2, Kind: fault.LinkCut, Port: 10}},
		{"wire corruption window", fault.Event{Tick: 2, Kind: fault.WireCorruptWindow, Port: 10}},
		{"port flap on another switch", fault.Event{Tick: 2, Kind: fault.PortDown, Switch: 1, Port: 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSoak(scripted(t, 4, 0, fault.Event{Tick: 1, Kind: fault.PortDown, Port: 30}, tc.bad))
			if err == nil {
				t.Fatalf("schedule accepted (%d events):\n%s", res.Events, res.Summary())
			}
			if !strings.Contains(err.Error(), tc.bad.String()) {
				t.Errorf("error %q does not name %q", err, tc.bad)
			}
		})
	}
}

// TestChaosProbeHeldToItsExit: a probe that leaves one switch on a port
// other than its chain's installed exit is a violation, not a delivery,
// as on a fabric. Anything the switch emitted counted as delivered.
func TestChaosProbeHeldToItsExit(t *testing.T) {
	s := scripted(t, 2, 0)
	basic := scenario.Probes()[2]
	basic.Exit = scenario.PortBackends
	s.Probes = []scenario.Probe{basic}
	res, err := RunSoak(s)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("t001 probe basic: exited port %d, want %d", scenario.PortUpstream, scenario.PortBackends)
	if res.Delivered != 0 || len(res.Violations) != 2 || res.Violations[0] != want {
		t.Errorf("delivered %d, violations %q; want 0 and one per tick, the first %q", res.Delivered, res.Violations, want)
	}
}
