package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json is generated from
// these tables (TestSpecMatchesTables keeps the two identical).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports
// every row, each with its own meaning of "operation" (README.md has
// the per-workload glossary). Timings and rates are in reference-speed
// time (hostclock.go). Bound is the share of the parent's median a
// change may lose before it counts as a regression; the timing rows
// carry the widest bound the driver allows although their run-to-run
// quartile spread on the reference host is 1–7 %, because that host has
// minutes in which even scaled figures move by a tenth (README.md,
// "Reference numbers").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mpps", "Mpps", "higher", 0.25},
	{"lat_us_p50", "us", "lower", 0.25},
	{"lat_us_p99", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer rows are named <module>.<what>: the module names of this
// repository are the layers. A workload's traced run fills the rows of
// the layers it crosses and leaves the others 0.
var perLayer = []metricDef{
	{"packet.parse_ns.64", "ns", "lower", 0},
	{"packet.parse_ns.1500", "ns", "lower", 0},
	{"packet.serialize_ns.64", "ns", "lower", 0},
	{"packet.serialize_ns.1500", "ns", "lower", 0},
	{"packet.zero_ns", "ns", "lower", 0},

	{"asic.inject_quiet_ns", "ns", "lower", 0},
	{"asic.inject_batch_ns", "ns", "lower", 0},
	{"asic.inject_traced_ns", "ns", "lower", 0},
	{"asic.recirc_pass_ns", "ns", "lower", 0},
	{"asic.allocs_per_pkt.fwd", "count", "lower", 0},
	{"asic.allocs_per_pkt.chain", "count", "lower", 0},
	{"asic.fwd_mpps_2w", "Mpps", "higher", 0},
	{"asic.cpu_punts", "count", "lower", 0},

	{"core.chain_ns.full", "ns", "lower", 0},
	{"core.chain_ns.medium", "ns", "lower", 0},
	{"core.chain_ns.basic", "ns", "lower", 0},
	{"core.chain_traced_ns.full", "ns", "lower", 0},
	{"core.deploy_ms", "ms", "lower", 0},
	{"core.add_chain_ms", "ms", "lower", 0},
	{"core.remove_chain_ms", "ms", "lower", 0},

	{"nf.classifier_ns", "ns", "lower", 0},
	{"nf.fw_ns", "ns", "lower", 0},
	{"nf.vgw_ns", "ns", "lower", 0},
	{"nf.vgw_encap_ns", "ns", "lower", 0},
	{"nf.lb_ns", "ns", "lower", 0},
	{"nf.router_ns", "ns", "lower", 0},
	{"nf.lb_install_ns", "ns", "lower", 0},

	{"mau.exact_lookup_ns", "ns", "lower", 0},
	{"mau.exact_lookup_ns_2w", "ns", "lower", 0},
	{"mau.exact_insert_ns", "ns", "lower", 0},
	{"mau.lpm_lookup_ns", "ns", "lower", 0},
	{"mau.ternary_lookup_ns", "ns", "lower", 0},

	{"compose.residual_ns.full", "ns", "lower", 0},
	{"compose.residual_ns.medium", "ns", "lower", 0},
	{"compose.residual_ns.basic", "ns", "lower", 0},
	{"compose.residual_share.full", "%", "lower", 0},

	{"telemetry.overhead_pct", "%", "lower", 0},
	{"telemetry.postcards_overhead_pct", "%", "lower", 0},

	{"ctl.poll_ns_per_punt", "ns", "lower", 0},
	{"ctl.sessions_installed", "count", "higher", 0},
	{"ctl.reinjected", "count", "higher", 0},

	{"route.plan_ns", "ns", "lower", 0},
	{"route.decide_ns", "ns", "lower", 0},
	{"route.diff_us", "us", "lower", 0},
	{"route.delta_entries", "count", "lower", 0},

	{"pipeline.build_us", "us", "lower", 0},
	{"pipeline.parser-merge_us", "us", "lower", 0},
	{"pipeline.placement_us", "us", "lower", 0},
	{"pipeline.composition_us", "us", "lower", 0},
	{"pipeline.stage-allocation_us", "us", "lower", 0},
	{"pipeline.routing_us", "us", "lower", 0},
	{"pipeline.lint_us", "us", "lower", 0},
	{"pipeline.cache_hits", "count", "higher", 0},
	{"pipeline.cold_build_ms", "ms", "lower", 0},

	{"intent.parse_us", "us", "lower", 0},
	{"intent.diff_us", "us", "lower", 0},
	{"intent.apply_residual_us", "us", "lower", 0},
	{"intent.noop_apply_ms", "ms", "lower", 0},
	{"intent.program_reloads", "count", "lower", 0},

	{"place.greedy_ms", "ms", "lower", 0},
	{"place.exhaustive_ms", "ms", "lower", 0},

	{"fabricplace.place_ms", "ms", "lower", 0},
	{"fabricplace.place_ms.8sw", "ms", "lower", 0},

	{"cluster.reconcile_heal_ms", "ms", "lower", 0},
	{"cluster.reconcile_noop_ms", "ms", "lower", 0},
	{"cluster.programs_changed", "count", "lower", 0},
	{"cluster.chains_replaced", "count", "lower", 0},
	{"cluster.fabric_inject_ns", "ns", "lower", 0},
	{"cluster.cross_hops", "count", "lower", 0},

	// Simulated-time figures from BatchResult/FabricTrace, not host
	// time: they repeat exactly, and only a placement change may move
	// them. fail_ratio is failed ÷ attempted operations, always 0 on a
	// correct run. All three would be end-to-end rows if the driver
	// accepted constants and zeros there.
	{"model.recircs_per_pkt", "count", "lower", 0},
	{"model.latency_ns", "ns", "lower", 0},
	{"fail_ratio", "count", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"ledger.closure", "count", "higher", 0},

	// The mean wall-clock time of the host clock's kernel over the run;
	// ÷ kernelNominalNs it is how much slower than reference speed the
	// host ran.
	{"host.kernel_ns", "ns", "lower", 0},
}

// metricValue is one reported number with the sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// hostInfo records what the numbers were taken on, so rows from
// different hosts are never compared by accident.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() hostInfo {
	return hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	// Workers is the number of busy goroutines the workload drives;
	// Oversubscribed flags rows taken with more workers than CPUs,
	// which say nothing about scaling.
	Workers        int  `json:"workers"`
	Oversubscribed bool `json:"oversubscribed"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Problems holds the first few verification failures, verbatim.
	Problems []string `json:"problems,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
}

// metricUnits maps every declared metric to its unit.
var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			units[d.Name] = d.Unit
		}
	}
	return units
}()

func newResult(workload string, seed int64, seconds float64, traced bool, workers int) *runResult {
	r := &runResult{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Host: thisHost(), Workers: workers,
		Metrics: map[string]metricValue{},
	}
	r.Oversubscribed = workers > r.Host.CPUs
	return r
}

// set records a metric; an undeclared name is a bug in the benchmark.
func (r *runResult) set(name string, value float64, n int) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit, N: n}
}

// fail counts failed operations and keeps the first few descriptions.
func (r *runResult) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// driverLine renders the single-line JSON object the driver reads:
// every end-to-end metric of a timed run, every per-layer metric of a
// traced one (0 where the workload does not cross the layer).
func (r *runResult) driverLine() (string, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && !r.Traced {
			return "", fmt.Errorf("workload %s did not report %s", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = mv{Value: v.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// print lists every metric the run recorded, by name, with its unit
// and sample count.
func (r *runResult) print() {
	mode := "timed"
	if r.Traced {
		mode = "traced"
	}
	flag := ""
	if r.Oversubscribed {
		flag = "  OVERSUBSCRIBED (workers > cpus)"
	}
	fmt.Printf("== %s  %s  seed=%d  %.3gs  workers=%d cpus=%d gomaxprocs=%d %s%s\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Workers, r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.Go, flag)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Printf("   %-34s %14.4f %-6s n=%d\n", n, v.Value, v.Unit, v.N)
	}
	fmt.Printf("   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}
