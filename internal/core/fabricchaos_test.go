package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dejavu/internal/cluster"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// TestFabricChaosSoak replays the canonical seeds against the 3-switch
// fabric and requires every fabric-level invariant to hold: probes are
// delivered, attributably dropped, corrupt-exempt or aimed at a
// reported blackhole — never silently lost — and segmentation stays
// chain-consecutive through every reconvergence.
func TestFabricChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tel := telemetry.NewControl()
			s, err := EdgeSoak(seed, 40, 3)
			if err != nil {
				t.Fatal(err)
			}
			s.Telemetry = tel
			res, err := RunSoak(s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("invariant violations:\n%s", res.Summary())
			}
			if res.Events == 0 {
				t.Error("schedule fired no fabric events")
			}
			if res.Delivered == 0 {
				t.Error("no probe ever delivered")
			}
			if res.Replacements == 0 {
				t.Error("no program transactions committed (not even the initial deploy)")
			}
			if res.Convergences == 0 {
				t.Error("no reconvergence observed")
			}
			if res.Driver.Failures != 0 {
				t.Errorf("driver exhausted retries %d time(s)", res.Driver.Failures)
			}
			if res.AliveAtEnd < 1 {
				t.Error("entry switch did not survive a protected schedule")
			}
			// The fabric deployment recorded the run into the given set.
			got := gathered(tel)
			for name, want := range map[string]int{
				"dejavu_fabric_replacements_total":      res.Replacements,
				`dejavu_fabric_switches{state="alive"}`: res.AliveAtEnd,
				"dejavu_fabric_reconciles_total":        res.Reconciles,
				"dejavu_fabric_convergences_total":      res.Convergences,
			} {
				if got[name] != float64(want) {
					t.Errorf("telemetry %s = %v, result says %d", name, got[name], want)
				}
			}
			if v := got["dejavu_fabric_last_converge_ticks"]; v < 1 || v > float64(res.MaxConvergeTicks) {
				t.Errorf("last convergence took %v rounds, result's longest is %d", v, res.MaxConvergeTicks)
			}
		})
	}
}

// gathered indexes a gather pass by family name, with the label set in
// braces when the sample has one.
func gathered(c telemetry.Collector) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range c.Gather() {
		for _, s := range f.Samples {
			key := f.Name
			if s.Labels != "" {
				key += "{" + s.Labels + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}

// TestFabricChaosRouteGaugesFollowInstalledRoutes: the per-chain route
// gauges sample exactly the chains with an installed route at the end
// of a soak, and the per-chain re-place counter every chain the soak
// ever routed. Seeds 7 and 42 end with chain 10 blackholed.
func TestFabricChaosRouteGaugesFollowInstalledRoutes(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		tel := telemetry.NewControl()
		s, err := EdgeSoak(seed, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.Telemetry = tel
		res, err := RunSoak(s)
		if err != nil {
			t.Fatal(err)
		}
		routed := make(map[string]ChainRouteRecord)
		for _, r := range res.Routes {
			routed[fmt.Sprintf(`chain="%d"`, r.Chain)] = r
		}
		if _, ok := routed[`chain="10"`]; ok {
			t.Fatalf("seed %d: chain 10 ends routed; the test needs it blackholed", seed)
		}
		for _, f := range tel.Gather() {
			switch f.Name {
			case "dejavu_fabric_place_path_length", "dejavu_fabric_place_cross_hops":
				var labels []string
				for _, s := range f.Samples {
					labels = append(labels, s.Labels)
					r, ok := routed[s.Labels]
					if !ok {
						t.Errorf("seed %d: %s samples %s, which has no installed route", seed, f.Name, s.Labels)
						continue
					}
					want := float64(len(r.Path))
					if f.Name == "dejavu_fabric_place_cross_hops" {
						want = float64(r.CrossHops)
					}
					if s.Value != want {
						t.Errorf("seed %d: %s{%s} = %v, installed route says %v", seed, f.Name, s.Labels, s.Value, want)
					}
				}
				if len(labels) != len(routed) {
					t.Errorf("seed %d: %s samples %v, want one per installed route (%d)", seed, f.Name, labels, len(routed))
				}
			case "dejavu_fabric_place_replacements_total":
				if len(f.Samples) != 3 || f.Samples[0].Labels != `chain="10"` {
					t.Errorf("seed %d: %s samples %v, want chains 10, 20 and 30", seed, f.Name, f.Samples)
				}
			}
		}
	}
}

// TestFabricChaosDeterministic proves the whole run — events, healing
// decisions, probe outcomes, log — replays identically from the seed.
func TestFabricChaosDeterministic(t *testing.T) {
	a, b := runEdgeSoak(t, 7, 40, 3), runEdgeSoak(t, 7, 40, 3)
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("two runs with the same seed diverged")
	}
	if len(a.Log) == 0 {
		t.Fatal("run produced no log")
	}
}

// TestFabricChaosRetriesDrivers checks that the canonical seeds
// actually exercise the control-plane retry path at least once across
// the suite — reconvergence through a FlakyApplier-backed driver.
func TestFabricChaosRetriesDrivers(t *testing.T) {
	retries := 0
	for _, seed := range []int64{1, 7, 42} {
		retries += runEdgeSoak(t, seed, 40, 3).Driver.Retries
	}
	if retries == 0 {
		t.Error("no seed exercised the driver retry path; re-tune the table-fault rate")
	}
}

// TestBlackholeViolationsInChainOrder: the soak reports a disagreement
// between the installed and the planned blackhole sets chain by chain in
// ID order, every time. It emitted them in map iteration order.
func TestBlackholeViolationsInChainOrder(t *testing.T) {
	installed := map[uint16]string{30: "gone", 10: "gone", 20: "gone"}
	planned := map[uint16]string{50: "unplaceable", 40: "unplaceable"}
	var want []string
	for _, id := range []int{10, 20, 30} {
		want = append(want, fmt.Sprintf("chain %d stays blackholed while a feasible placement exists", id))
	}
	for _, id := range []int{40, 50} {
		want = append(want, fmt.Sprintf("chain %d carries traffic but the current plan cannot place it", id))
	}
	for run := 0; run < 20; run++ {
		var got []string
		checkBlackholed(installed, planned, func(format string, args ...any) {
			got = append(got, fmt.Sprintf(format, args...))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: violations\n%s\nwant\n%s", run, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestFabricChaosReportsEveryFault: the fabric soak fires its
// control-plane faults on the one timeline with its fabric faults, so
// every table-write failure is counted and shows in the transcript, and
// the target applies every switch kill and revival to the fabric.
func TestFabricChaosReportsEveryFault(t *testing.T) {
	s, err := EdgeSoak(7, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSoak(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != len(s.Schedule) || res.Events != 25 {
		t.Errorf("events = %d, schedule holds %d, want 25", res.Events, len(s.Schedule))
	}
	dead, tables := make(map[int]bool), 0
	for _, ev := range s.Schedule {
		if !slices.Contains(res.Log, ev.String()) {
			t.Errorf("transcript misses fired fault %q", ev)
		}
		switch ev.Kind {
		case fault.SwitchKill:
			dead[ev.Switch] = true
		case fault.SwitchRevive:
			delete(dead, ev.Switch)
		case fault.TableWriteFail:
			tables++
		}
	}
	if tables == 0 || res.Driver.Retries == 0 {
		t.Errorf("%d table-write faults, %d driver retries; the seed exercises neither", tables, res.Driver.Retries)
	}
	if res.AliveAtEnd != 3-len(dead) {
		t.Errorf("alive at end = %d, the schedule leaves %d of 3 switches dead", res.AliveAtEnd, len(dead))
	}
}

// TestFabricChaosAppliesTopologyFaults: the injector only reports
// switch and link faults; the fabric target applies each to the fabric.
func TestFabricChaosAppliesTopologyFaults(t *testing.T) {
	sc, err := scenario.New()
	if err != nil {
		t.Fatal(err)
	}
	f, err := cluster.NewSpineFabric(sc.Prof, 3)
	if err != nil {
		t.Fatal(err)
	}
	tg := &fabricTarget{fd: &cluster.FabricDeployment{Fabric: f}}
	for _, step := range []struct {
		faults []fault.Event
		want   cluster.Health
	}{
		{[]fault.Event{{Kind: fault.SwitchKill, Switch: 2}, {Kind: fault.LinkCut, Switch: 0, Port: 10}}, cluster.HealthDead},
		{[]fault.Event{{Kind: fault.SwitchRevive, Switch: 2}, {Kind: fault.LinkRestore, Switch: 0, Port: 10}}, cluster.HealthAlive},
	} {
		for _, ev := range step.faults {
			if err := tg.apply(nil, ev); err != nil {
				t.Fatal(err)
			}
		}
		if sw, link := f.SwitchHealth(2), f.LinkHealth(0, 10); sw != step.want || link != step.want {
			t.Errorf("after %v: switch 2 %v, wire 0:10 %v; want both %v", step.faults, sw, link, step.want)
		}
	}
	if err := tg.apply(nil, fault.Event{Kind: fault.SwitchKill, Switch: 7}); err == nil {
		t.Error("a kill of switch 7 of 3 applied without error")
	}
}

// TestFabricChaosRefusesFaultsItCannotApply: a fabric schedule holding a
// fault the fabric cannot apply is refused before tick 1, naming the
// event. No fabric switch has a fault hook, so a port fault of one
// switch did nothing and was counted as fired.
func TestFabricChaosRefusesFaultsItCannotApply(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  fault.Event
	}{
		{"port flap", fault.Event{Tick: 2, Kind: fault.PortDown, Port: 1}},
		{"wire corruption of one switch", fault.Event{Tick: 2, Kind: fault.Corrupt, Port: 10}},
		{"recirculation overload", fault.Event{Tick: 2, Kind: fault.RecircOverload, Port: 16}},
		{"kill of a switch the fabric lacks", fault.Event{Tick: 2, Kind: fault.SwitchKill, Switch: 3}},
		{"revival of a negative switch", fault.Event{Tick: 2, Kind: fault.SwitchRevive, Switch: -1}},
		{"table-write fault on a switch the fabric lacks", fault.Event{Tick: 2, Kind: fault.TableWriteFail, Switch: 4,
			NF: ctl.FrameworkNF, Table: ctl.PipeletProgramTable, Failures: 1}},
		{"link cut where no wire leaves", fault.Event{Tick: 2, Kind: fault.LinkCut, Switch: 2, Port: 10}},
		{"link restore where no wire leaves", fault.Event{Tick: 2, Kind: fault.LinkRestore, Switch: 0, Port: 12}},
		{"corruption window where no wire leaves", fault.Event{Tick: 2, Kind: fault.WireCorruptWindow, Switch: 2, Port: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSoak(scripted(t, 4, 3, fault.Event{Tick: 1, Kind: fault.LinkCut, Switch: 0, Port: 11}, tc.bad))
			if err == nil {
				t.Fatalf("schedule accepted (%d events):\n%s", res.Events, res.Summary())
			}
			if !strings.Contains(err.Error(), tc.bad.String()) {
				t.Errorf("error %q does not name %q", err, tc.bad)
			}
		})
	}
}

// TestFabricChaosScriptedKillAndRevive drives a fabric end to end
// through a scripted schedule: switch 1 dies at tick 2 and comes back
// at tick 5, and one pipelet-program write fails on the way. Each
// change heals in its own tick, the failed write is retried, and every
// probe is delivered.
func TestFabricChaosScriptedKillAndRevive(t *testing.T) {
	res, err := RunSoak(scripted(t, 6, 3,
		fault.Event{Tick: 2, Kind: fault.SwitchKill, Switch: 1},
		fault.Event{Tick: 2, Kind: fault.TableWriteFail, NF: ctl.FrameworkNF, Table: ctl.PipeletProgramTable, Failures: 1},
		fault.Event{Tick: 5, Kind: fault.SwitchRevive, Switch: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Summary())
	}
	var heals []string
	for _, line := range res.Log {
		if strings.Contains(line, " heal: ") || strings.Contains(line, " converged ") {
			heals = append(heals, line)
		}
	}
	want := []string{
		"t001 heal: reprogrammed switches [0 1]", "t001 converged in 1 tick(s)",
		"t002 heal: reprogrammed switches [0 2]", "t002 converged in 1 tick(s)",
		"t005 heal: reprogrammed switches [0]", "t005 converged in 1 tick(s)",
	}
	if !slices.Equal(heals, want) {
		t.Errorf("heal lines\n%s\nwant\n%s", strings.Join(heals, "\n"), strings.Join(want, "\n"))
	}
	if res.Events != 3 || res.Convergences != 3 || res.MaxConvergeTicks != 1 || res.AliveAtEnd != 3 {
		t.Errorf("events %d, convergences %d (max %d tick(s)), alive at end %d; want 3, 3 (max 1), 3",
			res.Events, res.Convergences, res.MaxConvergeTicks, res.AliveAtEnd)
	}
	if res.Driver.Retries != 1 || res.Driver.Failures != 0 || res.Delivered != 18 {
		t.Errorf("driver retries %d, failures %d, delivered %d; want 1, 0, 18 (3 probes x 6 ticks)",
			res.Driver.Retries, res.Driver.Failures, res.Delivered)
	}
}
