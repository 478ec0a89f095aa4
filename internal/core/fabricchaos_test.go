package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

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
			tel := telemetry.NewFabric()
			res, err := RunFabricChaos(FabricChaosOpts{Seed: seed, Ticks: 40, Telemetry: tel})
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
			// The telemetry collector tracked the run.
			if got := tel.Replacements(); got != uint64(res.Replacements) {
				t.Errorf("telemetry replacements = %d, result says %d", got, res.Replacements)
			}
			if got := tel.SwitchesAlive(); got != uint64(res.AliveAtEnd) {
				t.Errorf("telemetry switches alive = %d, result says %d", got, res.AliveAtEnd)
			}
		})
	}
}

// TestFabricChaosDeterministic proves the whole run — events, healing
// decisions, probe outcomes, log — replays identically from the seed.
func TestFabricChaosDeterministic(t *testing.T) {
	run := func() *SoakResult {
		res, err := RunFabricChaos(FabricChaosOpts{Seed: 7, Ticks: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
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
		res, err := RunFabricChaos(FabricChaosOpts{Seed: seed, Ticks: 40})
		if err != nil {
			t.Fatal(err)
		}
		retries += res.Driver.Retries
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
