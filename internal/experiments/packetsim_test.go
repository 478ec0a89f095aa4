package experiments

import (
	"math"
	"testing"

	"dejavu/internal/recirc"
)

func TestRunPacketsValidation(t *testing.T) {
	bad := []packetConfig{
		{OfferedGbps: 0, LoopbackGbps: 100, Recirculations: 1},
		{OfferedGbps: 100, LoopbackGbps: 0, Recirculations: 1},
		{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 0},
	}
	for i, c := range bad {
		if _, err := runPackets(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunPacketsLosslessK1(t *testing.T) {
	res, err := runPackets(packetConfig{
		OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EgressGbps-100) > 1 {
		t.Errorf("k=1 egress = %v, want ≈100", res.EgressGbps)
	}
	if res.DroppedGbps > 1 {
		t.Errorf("k=1 drops = %v", res.DroppedGbps)
	}
}

func TestRunPacketsTriangulatesAnalyticModel(t *testing.T) {
	// The discrete simulator's contention semantics differ slightly
	// from the fluid proportional-loss assumption, so agreement within
	// ~15% (plus 1G absolute floor) triangulates the model the way the
	// paper's testbed points scatter around its curve.
	for k := 1; k <= 5; k++ {
		res, err := runPackets(packetConfig{
			OfferedGbps: 100, LoopbackGbps: 100, Recirculations: k, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := recirc.Throughput(100, 100, k)
		if math.Abs(res.EgressGbps-want) > want*0.15+1 {
			t.Errorf("k=%d: packet-level %v vs analytic %v", k, res.EgressGbps, want)
		}
	}
}

// TestRunPacketsMatchesAdmissionRule holds the explanation of fig8a's
// packet-sim gap (runPackets' doc): on a run long enough for the drain
// tail not to matter, egress is T/(2^k − 1), the steady state of the
// slot admission rule, not §4's proportional-sharing fixed point.
func TestRunPacketsMatchesAdmissionRule(t *testing.T) {
	for k := 2; k <= 5; k++ {
		res, err := runPackets(packetConfig{
			OfferedGbps: 100, LoopbackGbps: 100, Recirculations: k, Seed: 1, Packets: 2_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 100 / (math.Pow(2, float64(k)) - 1)
		if math.Abs(res.EgressGbps-want) > want*0.05 {
			t.Errorf("k=%d: packet-level %.2f, admission rule predicts %.2f", k, res.EgressGbps, want)
		}
	}
}

func TestRunPacketsSuperLinearDecay(t *testing.T) {
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		res, err := runPackets(packetConfig{
			OfferedGbps: 100, LoopbackGbps: 100, Recirculations: k, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.EgressGbps >= prev {
			t.Errorf("k=%d: egress %v not below k=%d's %v", k, res.EgressGbps, k-1, prev)
		}
		if k >= 2 && res.EgressGbps >= 100/float64(k) {
			t.Errorf("k=%d: %v not super-linear (>= %v)", k, res.EgressGbps, 100/float64(k))
		}
		prev = res.EgressGbps
	}
}

func TestRunPacketsUnsaturated(t *testing.T) {
	res, err := runPackets(packetConfig{
		OfferedGbps: 20, LoopbackGbps: 100, Recirculations: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EgressGbps-20) > 1.5 {
		t.Errorf("unsaturated egress = %v, want ≈20", res.EgressGbps)
	}
	if res.EgressFraction < 0.95 {
		t.Errorf("unsaturated fraction = %v", res.EgressFraction)
	}
}

func TestRunPacketsDeterministicUnderSeed(t *testing.T) {
	cfg := packetConfig{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 2, Seed: 7}
	a, err := runPackets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPackets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	cfg.Seed = 8
	c, err := runPackets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds, identical results (suspicious)")
	}
}

func TestRunPacketsConservation(t *testing.T) {
	res, err := runPackets(packetConfig{
		OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every measured packet either exits or is dropped (possibly after
	// consuming passes): egress + drops >= offered is impossible,
	// egress <= offered always; drops account for the rest up to
	// in-flight tails.
	if res.EgressGbps > 100.0 {
		t.Errorf("egress %v exceeds offered", res.EgressGbps)
	}
	if res.DroppedGbps <= 0 {
		t.Error("saturated run reports no drops")
	}
	total := res.EgressGbps + res.DroppedGbps
	if total < 95 || total > 105 {
		t.Errorf("egress+drops = %v, want ≈ offered 100", total)
	}
}

func BenchmarkRunPacketsK2(b *testing.B) {
	cfg := packetConfig{OfferedGbps: 100, LoopbackGbps: 100, Recirculations: 2, Seed: 1, Packets: 50_000}
	for i := 0; i < b.N; i++ {
		if _, err := runPackets(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
