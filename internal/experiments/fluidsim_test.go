package experiments

import (
	"math"
	"strings"
	"testing"

	"dejavu/internal/recirc"
)

func TestRunValidation(t *testing.T) {
	bad := []fluidConfig{
		{OfferedGbps: -1, LoopbackGbps: 100, Recirculations: 1},
		{OfferedGbps: 0, LoopbackGbps: 100, Recirculations: 1}, // zero offered rate: explicit error, not a silent idle run
		{OfferedGbps: 100, LoopbackGbps: 0, Recirculations: 1},
		{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 0},
	}
	for i, c := range bad {
		if _, err := runFluid(c); err == nil {
			t.Errorf("case %d validated: %+v", i, c)
		}
	}
}

func TestSingleRecirculationLossless(t *testing.T) {
	res, err := runFluid(fluidConfig{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EgressGbps-100) > 1 {
		t.Errorf("EgressGbps = %v, want ≈100", res.EgressGbps)
	}
	if res.DroppedGbps > 0.5 {
		t.Errorf("DroppedGbps = %v, want ≈0", res.DroppedGbps)
	}
	if !res.Converged {
		t.Error("simulation did not converge")
	}
}

func TestMatchesAnalyticModel(t *testing.T) {
	// The simulator must land on the §4 fixed point for each k — this
	// is the cross-validation of Fig. 8(a) ("The results match our
	// calculations well").
	for k := 1; k <= 5; k++ {
		res, err := runFluid(fluidConfig{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: k})
		if err != nil {
			t.Fatal(err)
		}
		want := recirc.Throughput(100, 100, k)
		if math.Abs(res.EgressGbps-want) > want*0.05+0.5 {
			t.Errorf("k=%d: simulated %v vs analytic %v", k, res.EgressGbps, want)
		}
	}
}

func TestPassRatesMatchAnalytic(t *testing.T) {
	res, err := runFluid(fluidConfig{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := recirc.PassRates(100, 100, 2)
	for i := range want {
		if math.Abs(res.PassGbps[i]-want[i]) > want[i]*0.06+0.5 {
			t.Errorf("pass %d: simulated %v vs analytic %v", i+1, res.PassGbps[i], want[i])
		}
	}
	// Saturated port: utilization ≈ 1.
	if res.Utilization < 0.95 {
		t.Errorf("Utilization = %v, want ≈1", res.Utilization)
	}
}

func TestUnsaturatedNoDrops(t *testing.T) {
	res, err := runFluid(fluidConfig{OfferedGbps: 20, LoopbackGbps: 100, Recirculations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EgressGbps-20) > 0.5 {
		t.Errorf("EgressGbps = %v, want ≈20", res.EgressGbps)
	}
	if res.DroppedGbps > 0.1 {
		t.Errorf("DroppedGbps = %v", res.DroppedGbps)
	}
	// 3 passes of 20G over a 100G port: utilization ≈ 0.6.
	if math.Abs(res.Utilization-0.6) > 0.05 {
		t.Errorf("Utilization = %v, want ≈0.6", res.Utilization)
	}
}

func TestConservation(t *testing.T) {
	// Offered = egress + dropped (within measurement tolerance): no
	// traffic is created or destroyed by the simulator.
	res, err := runFluid(fluidConfig{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Each drop removes a packet that consumed some passes; conservation
	// holds per-pass: pass1 delivered + dropped-share = offered. We
	// check the weaker global sanity bound: egress <= offered and
	// drops > 0 when saturated.
	if res.EgressGbps > 100.5 {
		t.Errorf("egress exceeds offered: %v", res.EgressGbps)
	}
	if res.DroppedGbps <= 0 {
		t.Error("saturated run reports no drops")
	}
}

func TestSweepShape(t *testing.T) {
	s, err := sweepFluid(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("sweepFluid length %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] >= s[i-1] {
			t.Errorf("sweep not decreasing: %v", s)
		}
	}
	// Shape anchors from the paper: k=2 ≈ 38, k=3 ≈ 16.
	if math.Abs(s[1]-38.2) > 3 {
		t.Errorf("k=2 egress = %v, want ≈38", s[1])
	}
	if math.Abs(s[2]-16.1) > 2 {
		t.Errorf("k=3 egress = %v, want ≈16", s[2])
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := fluidConfig{OfferedGbps: 1, LoopbackGbps: 1, Recirculations: 1}.withDefaults()
	if c.DurationSeconds == 0 || c.BufferBytes == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func BenchmarkFluidK3(b *testing.B) {
	cfg := fluidConfig{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 3, DurationSeconds: 0.01}
	for i := 0; i < b.N; i++ {
		if _, err := runFluid(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestZeroOfferedRateRejectedWithClearError(t *testing.T) {
	// Regression: validate used to accept OfferedGbps == 0 while its
	// error text claimed "rates must be positive".
	_, err := runFluid(fluidConfig{OfferedGbps: 0, LoopbackGbps: 100, Recirculations: 1})
	if err == nil {
		t.Fatal("OfferedGbps=0 accepted")
	}
	if !strings.Contains(err.Error(), "rates must be positive") {
		t.Errorf("unexpected error text: %v", err)
	}
	if _, err := runFluid(fluidConfig{OfferedGbps: 0.001, LoopbackGbps: 100, Recirculations: 1}); err != nil {
		t.Errorf("tiny positive rate rejected: %v", err)
	}
}

func TestSaturatedRunMemoryBounded(t *testing.T) {
	// Regression for the queue leak: popping with `queue = queue[1:]`
	// after repeated append pinned the backing array head, so a
	// saturated run's allocations grew with its duration. With the
	// head-index FIFO (and the hoisted arrivals buffer) allocations
	// are dominated by fixed setup cost: a 10x longer run must not
	// allocate anywhere near 10x as much.
	saturated := func(dur float64) fluidConfig {
		return fluidConfig{
			OfferedGbps: 200, LoopbackGbps: 100, Recirculations: 4,
			DurationSeconds: dur, BufferBytes: 50_000,
		}
	}
	measure := func(cfg fluidConfig) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := runFluid(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(saturated(0.005))
	long := measure(saturated(0.05))
	if long > short*3+64 {
		t.Errorf("allocations grow with duration: short=%v long=%v", short, long)
	}
}
