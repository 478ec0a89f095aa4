// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each bench
// reports its experiment's headline numbers as custom metrics so a
// plain `go test -bench=. -benchmem` run reproduces the evaluation:
//
//	BenchmarkFig6Placement      — §3.3 placement example (3 vs 1 recircs)
//	BenchmarkFig7FeedbackModel  — §4 feedback-queue fixed point
//	BenchmarkFig8aThroughput    — Fig 8(a) throughput vs recirculations
//	BenchmarkFig8bLatency       — Fig 8(b) recirculation latency
//	BenchmarkTable1Resources    — Table 1 framework resource overhead
//	BenchmarkFig9Prototype      — §5 prototype validation
//	BenchmarkEmulationOverhead  — §6 multiplexing comparison
//	BenchmarkSoftwareGap        — §1 software-NF motivation
//	BenchmarkMultiSwitch        — §7 back-to-back clusters
package dejavu_test

import (
	"strconv"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/core"
	"dejavu/internal/experiments"
	"dejavu/internal/packet"
	"dejavu/internal/pktgen"
	"dejavu/internal/place"
	"dejavu/internal/recirc"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
	"dejavu/internal/traffic"
)

// metric pulls a numeric cell out of an experiment table.
func metric(b *testing.B, tbl experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("%s: row %d col %d = %q", tbl.ID, row, col, tbl.Rows[row][col])
	}
	return v
}

func BenchmarkFig6Placement(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metric(b, tbl, 0, 1), "recircs/fig6a")
	b.ReportMetric(metric(b, tbl, 1, 1), "recircs/fig6b")
	b.ReportMetric(metric(b, tbl, 3, 1), "recircs/optimized")
}

func BenchmarkFig7FeedbackModel(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metric(b, tbl, 0, 1), "x/T")
	b.ReportMetric(metric(b, tbl, 2, 1), "tput-k2/T")
	b.ReportMetric(metric(b, tbl, 3, 1), "tput-k3/T")
}

func BenchmarkFig8aThroughput(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Fig8a()
		if err != nil {
			b.Fatal(err)
		}
	}
	for k := 1; k <= 5; k++ {
		b.ReportMetric(metric(b, tbl, k-1, 2), "Gbps-simulated/k"+strconv.Itoa(k))
	}
}

func BenchmarkFig8bLatency(b *testing.B) {
	p := asic.Wedge100B()
	var on, off int64
	for i := 0; i < b.N; i++ {
		on = int64(recirc.RecircLatency(p, asic.LoopbackOnChip))
		off = int64(recirc.RecircLatency(p, asic.LoopbackOffChip))
	}
	b.ReportMetric(float64(on), "ns/on-chip")
	b.ReportMetric(float64(off), "ns/off-chip")
	b.ReportMetric(float64(p.PortToPortLatency()), "ns/port-to-port")
}

func BenchmarkTable1Resources(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, r := range tbl.Rows {
		b.ReportMetric(metric(b, tbl, i, 1), "pct/"+r[0])
	}
}

func BenchmarkFig9Prototype(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metric(b, tbl, 0, 1), "Gbps/external")
	b.ReportMetric(metric(b, tbl, 3, 1), "recircs/max")
	b.ReportMetric(metric(b, tbl, 5, 1), "Gbps/effective-at-1.6T")
}

func BenchmarkEmulationOverhead(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Emulation()
		if err != nil {
			b.Fatal(err)
		}
	}
	native := metric(b, tbl, 0, 2)
	hyper4 := metric(b, tbl, 3, 2)
	if native > 0 {
		b.ReportMetric(hyper4/native, "x/hyper4-sram-inflation")
	}
}

func BenchmarkSoftwareGap(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.SoftwareGap()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metric(b, tbl, 2, 1), "cores/for-1.6T")
	b.ReportMetric(metric(b, tbl, 3, 1), "x/speedup-vs-32core")
}

func BenchmarkMultiSwitch(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.MultiSwitch()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metric(b, tbl, 2, 1), "stages/4-switches")
}

// Ablation: sequential vs parallel composition of FW+VGW on egress 1
// (DESIGN.md §5) — stage consumption vs transition recirculations.
func BenchmarkCompositionTradeoff(b *testing.B) {
	for _, mode := range []route.Mode{route.Sequential, route.Parallel} {
		b.Run(mode.String(), func(b *testing.B) {
			var recircs float64
			for i := 0; i < b.N; i++ {
				s := scenario.MustNew()
				s.Placement.SetMode(asic.PipeletID{Pipeline: 1, Dir: asic.Egress}, mode)
				tr, err := route.Plan(s.Chains[0], s.Placement, 0)
				if err != nil {
					b.Fatal(err)
				}
				recircs = float64(tr.Recirculations)
			}
			b.ReportMetric(recircs, "recircs/full-chain")
		})
	}
}

// Ablation: placement optimizer quality and runtime on the Fig. 6
// chain.
func BenchmarkPlacementOptimizers(b *testing.B) {
	prob := place.Problem{
		Prof: asic.Wedge100B(),
		Chains: []route.Chain{
			{PathID: 2, NFs: []string{"A", "B", "C", "D", "E", "F"}, Weight: 1, ExitPipeline: 0, StaticExitPort: 5},
		},
		Enter: 0,
	}
	run := func(name string, f func() (*place.Result, error)) {
		b.Run(name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := f()
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost.WeightedRecircs
			}
			b.ReportMetric(cost, "recircs/weighted")
		})
	}
	run("naive", func() (*place.Result, error) { return place.Naive(prob) })
	run("greedy", func() (*place.Result, error) { return place.Greedy(prob) })
	run("anneal", func() (*place.Result, error) {
		return place.Anneal(prob, place.AnnealOpts{Seed: 1, Iterations: 2000})
	})
	run("exhaustive", func() (*place.Result, error) { return place.Exhaustive(prob) })
}

// Ablation: loopback port budget vs effective capacity (DESIGN.md §5).
func BenchmarkLoopbackBudget(b *testing.B) {
	for _, m := range []int{4, 8, 16} {
		b.Run("loopback-"+strconv.Itoa(m), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				split := recirc.CapacitySplit{TotalPorts: 32, LoopbackPorts: m, PortGbps: 100}
				offered := split.ExternalGbps()
				// All traffic recirculates once through the loopback
				// budget (plus 200G dedicated).
				eff = recirc.Throughput(offered, split.LoopbackGbps()+200, 1)
			}
			b.ReportMetric(eff, "Gbps/effective")
		})
	}
}

// Datapath microbenchmarks: packets per second through the full §5
// chain on the behavioural model.
func BenchmarkDatapathFullChain(b *testing.B) {
	d := deployScenario(b)
	warm := scenario.ClientTCP(443)
	if _, err := d.Inject(scenario.PortClient, warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Inject(scenario.PortClient, scenario.ClientTCP(443)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatapathBasicPath(b *testing.B) {
	d := deployScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Inject(scenario.PortClient, scenario.InternetBound()); err != nil {
			b.Fatal(err)
		}
	}
}

func deployScenario(b *testing.B) *core.Deployment {
	b.Helper()
	s := scenario.MustNew()
	d, err := core.Deploy(core.Config{
		Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Enter: 0, Placement: s.Placement,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// Lock-free packet hot path: single-thread InjectQuiet through the
// synthetic forwarder pipeline (bench/'s bare-forward workload). The
// committed budget is 0 allocs/op in steady state; CI runs this
// with -benchmem as a smoke check.
func BenchmarkInjectHotPath(b *testing.B) {
	sw := traffic.NewBenchSwitch(asic.Wedge100B(), traffic.ForwarderOpts{})
	gen := pktgen.New(pktgen.Config{Seed: 1})
	flows := gen.Flows(64)
	templates := make([]packet.Parsed, len(flows))
	for i, f := range flows {
		gen.PacketInto(f, &templates[i])
	}
	var scratch packet.Parsed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(&templates[i%len(templates)])
		if _, err := sw.InjectQuiet(0, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// Batched hot path: the same forwarder workload through
// InjectQuietBatch in 64-packet bursts — one snapshot load, one pool
// checkout and one telemetry flush per burst instead of per packet.
// The batch-path budget is 0 allocs/pkt in steady state (gated by
// TestInjectQuietBatchAllocBudget); ns/op here is per packet.
func BenchmarkInjectQuietBatch(b *testing.B) {
	const batch = 64
	sw := traffic.NewBenchSwitch(asic.Wedge100B(), traffic.ForwarderOpts{})
	gen := pktgen.New(pktgen.Config{Seed: 1})
	flows := gen.Flows(64)
	templates := make([]packet.Parsed, len(flows))
	for i, f := range flows {
		gen.PacketInto(f, &templates[i])
	}
	scratch := make([]packet.Parsed, batch)
	ptrs := make([]*packet.Parsed, batch)
	for i := range scratch {
		ptrs[i] = &scratch[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := batch
		if left := b.N - done; left < k {
			k = left
		}
		for i := 0; i < k; i++ {
			scratch[i].CopyFrom(&templates[(done+i)%len(templates)])
		}
		if br := sw.InjectQuietBatch(0, ptrs[:k]); br.Err != nil {
			b.Fatal(br.Err)
		}
		done += k
	}
}

// Ablation: annealing iteration budget vs solution quality on a
// 10-NF chain over 4 pipelines (where exhaustive search is infeasible).
func BenchmarkAnnealBudget(b *testing.B) {
	nfs := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9"}
	prob := place.Problem{
		Prof:   asic.Tofino4(),
		Chains: []route.Chain{{PathID: 1, NFs: nfs, Weight: 1, ExitPipeline: 0}},
		Enter:  0,
	}
	for _, iters := range []int{500, 2000, 8000} {
		b.Run("iters-"+strconv.Itoa(iters), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := place.Anneal(prob, place.AnnealOpts{Seed: 11, Iterations: iters})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost.WeightedRecircs
			}
			b.ReportMetric(cost, "recircs/weighted")
		})
	}
}

// Multi-switch fabric datapath: packets crossing a 2-switch wire.
func BenchmarkFabricCrossSwitch(b *testing.B) {
	s := scenario.MustNew()
	f, err := cluster.NewSpineFabric(s.Prof, 2)
	if err != nil {
		b.Fatal(err)
	}
	fd, err := cluster.NewFabricDeployment(f, s.Chains, s.NFs, nil)
	if err != nil {
		b.Fatal(err)
	}
	fd.Pins = map[string]int{"classifier": 0, "fw": 0, "vgw": 1, "lb": 1, "router": 1}
	if _, err := cluster.NewReconciler(fd).Reconcile(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Inject(0, scenario.PortClient, scenario.InternetBound()); err != nil {
			b.Fatal(err)
		}
	}
}
