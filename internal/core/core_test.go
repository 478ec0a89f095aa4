package core

import (
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/scenario"
)

// edgeConfig returns the §5 scenario as a core Config with the manual
// Fig. 9 placement.
func edgeConfig() Config {
	s := scenario.MustNew()
	return Config{
		Prof:      s.Prof,
		Chains:    s.Chains,
		NFs:       s.NFs,
		Enter:     0,
		Placement: s.Placement,
	}
}

func TestDeployManualPlacement(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Switch == nil || d.Controller == nil {
		t.Fatal("deployment missing switch or controller")
	}
	if len(d.Chains) != 3 {
		t.Fatalf("chain reports = %d", len(d.Chains))
	}
	// Fig. 9 configuration: each chain recirculates exactly once.
	for _, c := range d.Chains {
		if c.Recirculations != 1 {
			t.Errorf("chain %d: %d recircs, want 1 (%s)", c.Chain.PathID, c.Recirculations, c.Traversal.Path())
		}
	}
	if d.MaxRecirculations() != 1 {
		t.Errorf("MaxRecirculations = %d", d.MaxRecirculations())
	}
	if w := d.WeightedRecirculations(); w != 1 {
		t.Errorf("WeightedRecirculations = %v", w)
	}
	if d.ParserStates < 10 {
		t.Errorf("ParserStates = %d, suspiciously few", d.ParserStates)
	}
}

func TestDeployOptimizedPlacement(t *testing.T) {
	cfg := edgeConfig()
	cfg.Placement = nil
	cfg.Optimizer = OptExhaustive
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer must do at least as well as the manual placement's
	// weighted cost (1 recirc per chain → weighted 1.0).
	if d.Cost.WeightedRecircs > 1.0+1e-9 {
		t.Errorf("optimized cost %v worse than manual placement", d.Cost)
	}
	// The classifier stays pinned on the entry ingress pipe.
	at, ok := d.Placement.Of("classifier")
	if !ok || at != (asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}) {
		t.Errorf("classifier at %v", at)
	}
}

func TestDeployOptimizersProduceWorkingDatapaths(t *testing.T) {
	for _, opt := range []Optimizer{OptNaive, OptGreedy, OptAnneal, OptExhaustive} {
		cfg := edgeConfig()
		cfg.Placement = nil
		cfg.Optimizer = opt
		d, err := Deploy(cfg)
		if err != nil {
			t.Fatalf("%s: %v", opt, err)
		}
		// End-to-end smoke: the basic path must deliver.
		tr, err := d.Inject(scenario.PortClient, scenario.InternetBound())
		if err != nil {
			t.Fatalf("%s: inject: %v", opt, err)
		}
		if tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortUpstream {
			t.Errorf("%s: basic path broken: dropped=%v out=%+v", opt, tr.Dropped, tr.Out)
		}
	}
}

func TestDeployInjectServicesControlPlane(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The first VIP packet triggers LB learning; Inject transparently
	// polls the controller and returns the reinjected packet's trace.
	tr, err := d.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortBackends {
		t.Fatalf("learned path broken: dropped=%v out=%+v", tr.Dropped, tr.Out)
	}
	if d.Controller.Stats().SessionsInstalled != 1 {
		t.Errorf("controller stats: %+v", d.Controller.Stats())
	}
}

func TestDeployLoopbackCapacity(t *testing.T) {
	cfg := edgeConfig()
	// §5: 16 ports of pipeline 1 in loopback -> 1.6 Tbps external.
	for p := 16; p < 32; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Capacity.ExternalGbps(); got != 1600 {
		t.Errorf("ExternalGbps = %v, want 1600", got)
	}
	// Dedicated recirc (2x100) + 16 loopback ports (1600).
	if got := d.LoopbackGbps(); got != 1800 {
		t.Errorf("LoopbackGbps = %v, want 1800", got)
	}
	// With k=1 and 1.6T offered vs 1.8T loopback: no loss.
	if got := d.EffectiveThroughputGbps(1600); got != 1600 {
		t.Errorf("EffectiveThroughputGbps(1600) = %v, want 1600", got)
	}
	// Without extra loopback ports the same offered load collapses.
	plain, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.EffectiveThroughputGbps(1600); got >= 1600 {
		t.Errorf("200G loopback sustained 1.6T at k=1: %v", got)
	}
}

func TestDeployResourcesReport(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, ok := d.Resources.Get("Stages")
	if !ok {
		t.Fatal("no Stages line")
	}
	if st.Percent < 10 || st.Percent > 35 {
		t.Errorf("framework stages = %.1f%%, want ~20%%", st.Percent)
	}
	tcam, _ := d.Resources.Get("TCAM")
	if tcam.Used != 0 {
		t.Errorf("framework TCAM = %d", tcam.Used)
	}
	sum := d.Summary()
	for _, want := range []string{"Dejavu deployment", "chain 10", "Stages", "parser"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
}

func TestDeployErrors(t *testing.T) {
	if _, err := Deploy(Config{}); err == nil {
		t.Error("empty config deployed")
	}
	cfg := edgeConfig()
	cfg.Placement = nil
	cfg.Optimizer = "quantum"
	if _, err := Deploy(cfg); err == nil {
		t.Error("unknown optimizer accepted")
	}
	bad := edgeConfig()
	for _, port := range []asic.PortID{999, asic.RecircPort(0), asic.PortCPU} {
		bad.LoopbackPorts = []asic.PortID{port}
		if _, err := Deploy(bad); err == nil {
			t.Errorf("loopback port %d accepted", port)
		}
	}
}

// BenchmarkColdDeploy times one fresh §5 scenario plus its deploy on
// the manual Fig. 9 placement: the cold build newflow-punt's setup_s
// measures once per epoch.
func BenchmarkColdDeploy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Deploy(edgeConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeployExhaustive(b *testing.B) {
	cfg := edgeConfig()
	cfg.Placement = nil
	cfg.Optimizer = OptExhaustive
	for i := 0; i < b.N; i++ {
		if _, err := Deploy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPerChainThroughput(t *testing.T) {
	cfg := edgeConfig()
	for p := 16; p < 32; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1.6T offered at k=1 everywhere with 1.8T loopback: lossless, and
	// per-chain egress equals the weight split.
	per := d.PerChainThroughputGbps(1600)
	if len(per) != 3 {
		t.Fatalf("per-chain = %d entries", len(per))
	}
	wantShares := []float64{0.5, 0.3, 0.2}
	for i, got := range per {
		want := 1600 * wantShares[i]
		if got < want-1 || got > want+1 {
			t.Errorf("chain %d egress = %v, want %v", i, got, want)
		}
	}

	// Overload: 2.4T offered against 1.8T of loopback — total egress
	// must equal the mixed-model prediction and fall below offered.
	eff := d.EffectiveThroughputGbps(2400)
	if eff >= 2400 {
		t.Errorf("overloaded effective = %v, want < offered", eff)
	}
	sum := 0.0
	for _, v := range d.PerChainThroughputGbps(2400) {
		sum += v
	}
	if diff := sum - eff; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum of per-chain (%v) != effective (%v)", sum, eff)
	}
}
