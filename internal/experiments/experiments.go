// Package experiments regenerates every table and figure of the
// paper's evaluation: the Fig. 6 placement comparison, the §4
// feedback-queue analysis (Fig. 7), the recirculation throughput and
// latency measurements (Fig. 8a/8b), the Table 1 resource overhead,
// and the §5 prototype validation (Fig. 9) — plus the comparison
// experiments implied by §1 (software gap) and §6 (emulation
// overhead), and the §7 multi-switch extension.
//
// Each experiment returns a Table whose rows juxtapose the paper's
// reported values with this reproduction's measurements; the shape
// (who wins, by what factor, where crossovers fall) is the comparison
// target, not the absolute hardware numbers.
//
// The testbed and the comparison systems the paper measures against
// live here too: a fluid and a packet-level simulator of the §4
// loopback feedback queue (fluidsim.go, packetsim.go) and the §1/§6
// software and emulation baselines (baseline.go).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/config"
	"dejavu/internal/core"
	"dejavu/internal/intent"
	"dejavu/internal/lint"
	"dejavu/internal/mau"
	"dejavu/internal/place"
	"dejavu/internal/recirc"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// Table is one regenerated artifact.
type Table struct {
	ID     string // e.g. "fig8a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			} else {
				sb.WriteString(c + "  ")
			}
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// f formats a float briefly.
func f(v float64) string { return fmt.Sprintf("%.2f", v) }

// Fig6 reproduces the §3.3 placement example: the naive alternating
// scheme versus the optimized placement for chain A-B-C-D-E-F on two
// pipelines, reporting traversal paths and recirculation counts.
func Fig6() (Table, error) {
	// The exit port is fixed in advance, as in the paper's example
	// ("packets should be eventually forwarded to a port on Egress 0").
	chain := route.Chain{
		PathID: 2, NFs: []string{"A", "B", "C", "D", "E", "F"}, Weight: 1,
		ExitPipeline: 0, StaticExitPort: 5,
	}
	prob := place.Problem{Prof: asic.Wedge100B(), Chains: []route.Chain{chain}, Enter: 0}

	naive, err := place.Naive(prob)
	if err != nil {
		return Table{}, err
	}
	opt, err := place.Exhaustive(prob)
	if err != nil {
		return Table{}, err
	}
	naiveTr, err := route.Plan(chain, naive.Placement, 0)
	if err != nil {
		return Table{}, err
	}
	optTr, err := route.Plan(chain, opt.Placement, 0)
	if err != nil {
		return Table{}, err
	}

	// The paper's hand-constructed Fig. 6(a)/(b) placements.
	figA := route.NewPlacement()
	figA.Assign("A", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	figA.Assign("B", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	figA.Assign("C", asic.PipeletID{Pipeline: 0, Dir: asic.Egress})
	figA.Assign("D", asic.PipeletID{Pipeline: 1, Dir: asic.Ingress})
	figA.Assign("E", asic.PipeletID{Pipeline: 1, Dir: asic.Egress})
	figA.Assign("F", asic.PipeletID{Pipeline: 1, Dir: asic.Egress})
	figB := route.NewPlacement()
	figB.Assign("A", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	figB.Assign("B", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	figB.Assign("C", asic.PipeletID{Pipeline: 1, Dir: asic.Egress})
	figB.Assign("D", asic.PipeletID{Pipeline: 1, Dir: asic.Ingress})
	figB.Assign("E", asic.PipeletID{Pipeline: 0, Dir: asic.Egress})
	figB.Assign("F", asic.PipeletID{Pipeline: 0, Dir: asic.Egress})
	figATr, err := route.Plan(chain, figA, 0)
	if err != nil {
		return Table{}, err
	}
	figBTr, err := route.Plan(chain, figB, 0)
	if err != nil {
		return Table{}, err
	}

	return Table{
		ID:     "fig6",
		Title:  "NF placement schemes for chain A-B-C-D-E-F (2 pipelines)",
		Header: []string{"placement", "recirculations", "paper", "traversal"},
		Rows: [][]string{
			{"Fig6(a) paper layout", fmt.Sprint(figATr.Recirculations), "3", figATr.Path()},
			{"Fig6(b) paper layout", fmt.Sprint(figBTr.Recirculations), "1", figBTr.Path()},
			{"naive (alternating)", fmt.Sprint(naiveTr.Recirculations), "-", naiveTr.Path()},
			{"optimizer (exhaustive)", fmt.Sprint(optTr.Recirculations), "<=1", optTr.Path()},
		},
	}, nil
}

// Fig7 reproduces the §4 feedback-queue analysis: the per-pass rates
// x and y for the 2-recirculation case and the derived effective
// throughputs.
func Fig7() (Table, error) {
	const T = 100.0
	rates2 := recirc.PassRates(T, T, 2)
	rows := [][]string{
		{"x (1st pass rate)", f(rates2[0] / T), "0.62"},
		{"y (2nd pass rate)", f(rates2[1] / T), "0.38"},
		{"throughput k=2", f(recirc.Throughput(T, T, 2) / T), "0.38"},
		{"throughput k=3", f(recirc.Throughput(T, T, 3) / T), "0.16"},
	}
	return Table{
		ID:     "fig7",
		Title:  "Feedback-queue fixed point (fractions of T)",
		Header: []string{"quantity", "model", "paper"},
		Rows:   rows,
		Notes:  []string{"x solves x^2 + xT - T^2 = 0"},
	}, nil
}

// Fig8a reproduces the recirculation-throughput measurement: 100 Gbps
// injected, k = 1..5 recirculations, analytic model vs fluid
// simulation (the testbed substitute).
func Fig8a() (Table, error) {
	const T = 100.0
	const maxK = 5
	analytic := recirc.Series(T, maxK)
	simulated, err := sweepFluid(T, maxK)
	if err != nil {
		return Table{}, err
	}
	paper := []string{"100", "38", "16", "7", "3"} // read off Fig. 8(a)
	var rows [][]string
	for k := 1; k <= maxK; k++ {
		pkt, err := runPackets(packetConfig{
			OfferedGbps: T, LoopbackGbps: T, Recirculations: k, Seed: 1,
		})
		if err != nil {
			return Table{}, err
		}
		rows = append(rows, []string{
			fmt.Sprint(k), f(analytic[k-1]), f(simulated[k-1]), f(pkt.EgressGbps), paper[k-1],
		})
	}
	return Table{
		ID:     "fig8a",
		Title:  "Throughput (Gbps) vs number of recirculations at 100G offered",
		Header: []string{"recirculations", "analytic", "fluid-sim", "packet-sim", "paper(approx)"},
		Rows:   rows,
		Notes:  []string{"super-linear decay: each k is below 100/k"},
	}, nil
}

// Fig8b reproduces the recirculation latency measurement: on-chip vs
// off-chip loopback and the port-to-port baseline, plus end-to-end
// chain latency versus recirculation count.
func Fig8b() (Table, error) {
	p := asic.Wedge100B()
	rows := [][]string{
		{"port-to-port (idle)", fmtDur(p.PortToPortLatency()), "~650 ns"},
		{"on-chip recirculation", fmtDur(recirc.RecircLatency(p, asic.LoopbackOnChip)), "~75 ns"},
		{"off-chip recirculation (1m DAC)", fmtDur(recirc.RecircLatency(p, asic.LoopbackOffChip)), "~145 ns"},
		{"on-chip overhead fraction", f(recirc.LatencyOverheadFraction(p, asic.LoopbackOnChip)), "0.115"},
		{"chain latency k=1 (on-chip)", fmtDur(recirc.ChainLatency(p, 1, asic.LoopbackOnChip)), "-"},
		{"chain latency k=3 (on-chip)", fmtDur(recirc.ChainLatency(p, 3, asic.LoopbackOnChip)), "-"},
	}
	return Table{
		ID:     "fig8b",
		Title:  "Recirculation latency",
		Header: []string{"quantity", "model", "paper"},
		Rows:   rows,
		Notes:  []string{"off-chip is ~70 ns slower than on-chip; on-chip is ~2x faster"},
	}, nil
}

func fmtDur(d time.Duration) string { return d.String() }

// Table1 reproduces the framework resource overhead of the §5
// prototype: the Dejavu tables' share of stages, table IDs, gateways,
// crossbars, VLIWs, SRAM and TCAM on the Wedge-100B profile.
func Table1() (Table, error) {
	d, err := deployPrototype()
	if err != nil {
		return Table{}, err
	}
	paper := map[string]string{
		"Stages": "20.8", "TableIDs": "4.2", "Gateways": "2.0",
		"Crossbars": "0.4", "VLIWs": "1.5", "SRAM": "0.2", "TCAM": "0.0",
	}
	var rows [][]string
	for _, l := range d.Resources.Lines {
		rows = append(rows, []string{l.Name, fmt.Sprintf("%.1f", l.Percent), paper[l.Name]})
	}
	return Table{
		ID:     "table1",
		Title:  "Dejavu framework resource overhead (% of ASIC)",
		Header: []string{"resource", "measured %", "paper %"},
		Rows:   rows,
		Notes: []string{
			"stages holding framework tables are counted even though NF tables may share them",
		},
	}, nil
}

// deployPrototype builds the §5 scenario deployment with the Fig. 9
// loopback configuration.
func deployPrototype() (*core.Deployment, error) {
	s := scenario.MustNew()
	cfg := core.Config{
		Prof:      s.Prof,
		Chains:    s.Chains,
		NFs:       s.NFs,
		Enter:     0,
		Placement: s.Placement,
	}
	// §5: the 16 Ethernet ports of pipeline 1 in loopback mode.
	for p := 16; p < 32; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}
	return core.Deploy(cfg)
}

// Fig9 reproduces the prototype validation: placement, capacity split
// (1.6 Tbps external, one free recirculation for all traffic) and the
// PTF functional suite over the three SFC paths.
func Fig9() (Table, error) {
	d, err := deployPrototype()
	if err != nil {
		return Table{}, err
	}
	cases, failures := ptfSuite(d)
	rows := [][]string{
		{"external capacity (Gbps)", f(d.Capacity.ExternalGbps()), "1600"},
		{"loopback bandwidth (Gbps)", f(d.LoopbackGbps()), "1600+"},
		{"once-recirculable fraction", f(d.Capacity.OnceRecirculableFraction()), "1.0"},
		{"max recirculations", fmt.Sprint(d.MaxRecirculations()), "1"},
		{"PTF cases passed", fmt.Sprintf("%d/%d", cases-len(failures), cases), "all"},
		{"effective throughput @1.6T (Gbps)", f(d.EffectiveThroughputGbps(1600)), "1600"},
	}
	t := Table{
		ID:     "fig9",
		Title:  "Prototype validation (5 NFs, 4 pipelets, 16 loopback ports)",
		Header: []string{"quantity", "measured", "paper"},
		Rows:   rows,
	}
	for _, err := range failures {
		t.Notes = append(t.Notes, "FAIL: "+err.Error())
	}
	for _, c := range d.Chains {
		t.Notes = append(t.Notes, fmt.Sprintf("chain %d: %s", c.Chain.PathID, c.Traversal.Path()))
	}
	return t, nil
}

// ptfSuite is the paper's Packet Test Framework run on a fresh §5
// deployment: the full path's first packet punts and the control plane
// learns its session, then every §5 probe must pass Verify within one
// recirculation. It returns the number of cases and one error per
// failed case.
func ptfSuite(d *core.Deployment) (cases int, failures []error) {
	probes := scenario.Probes()
	tr, err := d.Switch.Inject(probes[0].Port, probes[0].Packet())
	if err == nil && (len(tr.CPU) == 0 || tr.Recirculations > 1) {
		err = fmt.Errorf("%d punts, %d recirculations (path %s)", len(tr.CPU), tr.Recirculations, tr.Path())
	}
	if err == nil {
		_, err = d.Controller.Poll()
	}
	if err != nil {
		failures = append(failures, fmt.Errorf("learning punt: %w", err))
	}
	for _, pr := range probes {
		tr, err := d.Switch.Inject(pr.Port, pr.Packet())
		if err == nil {
			err = pr.Verify(tr.Out)
		}
		if err == nil && tr.Recirculations > 1 {
			err = fmt.Errorf("probe %s: %d recirculations, want <= 1", pr.Name, tr.Recirculations)
		}
		if err != nil {
			failures = append(failures, err)
		}
	}
	return 1 + len(probes), failures
}

// Emulation reproduces the §6 comparison: resource inflation of
// emulation-style data plane multiplexing versus code merging versus
// Dejavu, on the prototype's native merged program.
func Emulation() (Table, error) {
	d, err := deployPrototype()
	if err != nil {
		return Table{}, err
	}
	var native mau.Resources
	for _, plan := range d.Plans {
		native = native.Add(plan.Total())
	}
	rows := [][]string{}
	budget := d.Config.Prof.TotalStages()
	for _, r := range compareEmulation(native, budget, dejavuNative, codeMerge, hyperV, hyper4) {
		rows = append(rows, []string{
			r.Approach, f(r.Factor),
			fmt.Sprint(r.Resources.SRAMBlocks), fmt.Sprint(r.Resources.TCAMBlocks),
			fmt.Sprint(r.Resources.TableIDs), fmt.Sprint(r.FitsStages),
		})
	}
	return Table{
		ID:     "emul",
		Title:  "Data plane multiplexing: resource comparison (§6: emulation costs 3-7x)",
		Header: []string{"approach", "factor", "SRAM", "TCAM", "tableIDs", "fits"},
		Rows:   rows,
	}, nil
}

// SoftwareGap reproduces the §1 motivation: CPU cores needed to match
// the ASIC prototype's capacity with a software SFC.
func SoftwareGap() (Table, error) {
	chain := softChain{NFs: defaultSoftNFs()}
	cores1600, err := chain.CoresFor(1600)
	if err != nil {
		return Table{}, err
	}
	cores100, err := chain.CoresFor(100)
	if err != nil {
		return Table{}, err
	}
	rows := [][]string{
		{"chain per-core throughput (Gbps)", f(chain.PerCoreGbps()), "-"},
		{"cores for 100 Gbps", fmt.Sprint(cores100), "multiple (§1)"},
		{"cores for 1.6 Tbps (prototype)", fmt.Sprint(cores1600), "hundreds"},
		{"speedup vs 32-core server", f(chain.SpeedupVsSoftware(1600, 32)), "1-2 orders"},
	}
	return Table{
		ID:     "softgap",
		Title:  "Software SFC baseline vs single-ASIC Dejavu",
		Header: []string{"quantity", "measured", "paper claim"},
		Rows:   rows,
	}, nil
}

// MultiSwitch reproduces the §7 extension: chaining switches
// back-to-back multiplies stage capacity at constant bandwidth, with
// cheap off-chip hops.
func MultiSwitch() (Table, error) {
	prof := asic.Wedge100B()
	var rows [][]string
	var nfs []string
	demand := make(map[string]int)
	for i := 0; i < 16; i++ {
		n := fmt.Sprintf("nf%02d", i)
		nfs = append(nfs, n)
		demand[n] = 8
	}
	chain := []route.Chain{{PathID: 1, NFs: nfs, Weight: 1, ExitPipeline: 0}}
	for _, n := range []int{1, 2, 4} {
		// n switches chained back-to-back: stage capacity multiplies,
		// bandwidth stays a single switch's (§7).
		fab, err := cluster.NewFabric(prof, n)
		if err != nil {
			return Table{}, err
		}
		for i := 0; i+1 < n; i++ {
			if err := fab.Connect(i, 10, i+1, 10); err != nil {
				return Table{}, err
			}
		}
		fd, err := cluster.NewFabricDeployment(fab, chain, nil, demand)
		if err != nil {
			return Table{}, err
		}
		plan, err := fd.Plan(fd.Chains)
		if err != nil {
			return Table{}, err
		}
		status, crossings, lat := "does not fit", "-", "-"
		if len(plan.Blackholed) == 0 {
			status = "fits"
			crossings = f(float64(plan.Routes[1].CrossHops))
			lat = plan.Latency.String()
		}
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(n * prof.TotalStages()), f(prof.CapacityGbps() / 2),
			status, crossings, lat,
		})
	}
	t := Table{
		ID:     "multiswitch",
		Title:  "Back-to-back switch clusters for a 16-NF heavy chain (8 stages/NF)",
		Header: []string{"switches", "stages", "bandwidth(G)", "16-NF chain", "crossings", "latency"},
		Rows:   rows,
	}

	// Functional validation: the §5 chain split across a 2-switch
	// behavioural fabric still forwards all three SFC paths.
	passed, hops, err := fabricValidation()
	if err != nil {
		return Table{}, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"behavioural 2-switch fabric: %d/3 SFC paths functional, %d wire hop(s) per packet", passed, hops))
	return t, nil
}

// fabricValidation splits the §5 chain over two wired switches and
// drives the three SFC paths through.
func fabricValidation() (passed, hops int, err error) {
	s := scenario.MustNew()
	f, err := cluster.NewSpineFabric(s.Prof, 2)
	if err != nil {
		return 0, 0, err
	}
	fd, err := cluster.NewFabricDeployment(f, s.Chains, s.NFs, nil)
	if err != nil {
		return 0, 0, err
	}
	fd.Pins = map[string]int{"classifier": 0, "fw": 0, "vgw": 1, "lb": 1, "router": 1}
	if _, err := cluster.NewReconciler(fd).Reconcile(); err != nil {
		return 0, 0, err
	}
	// Pre-install the LB session so the full path completes.
	pkt := scenario.ClientTCP(443)
	ftuple, _ := pkt.FiveTuple()
	backend, err := s.LB.SelectBackend(scenario.VIP, ftuple.Hash())
	if err != nil {
		return 0, 0, err
	}
	if err := s.LB.InstallSession(ftuple.Hash(), backend); err != nil {
		return 0, 0, err
	}
	for _, pr := range scenario.Probes() {
		tr, err := f.Inject(0, pr.Port, pr.Packet())
		if err != nil {
			return passed, hops, err
		}
		if pr.Verify(tr.Out) == nil {
			passed++
			hops = tr.Hops
		}
	}
	return passed, hops, nil
}

// LintReport records the static-verification summary of the §5
// prototype deployment: findings per rule with the worst severity, and
// the overall gate verdict. A clean prototype is itself a reproduction
// claim — the paper's deployment respects every compile-time constraint
// the verifier encodes (stage budgets, recirculation legality,
// branching completeness).
func LintReport() (Table, error) {
	d, err := deployPrototype()
	if err != nil {
		return Table{}, err
	}
	rep := d.Lint
	var rows [][]string
	for _, rule := range lint.Rules() {
		fs := rep.ByRule(rule.ID())
		worst := "-"
		if len(fs) > 0 {
			worst = fs[0].Severity.String() // findings are sorted, worst first
		}
		rows = append(rows, []string{rule.ID(), rule.Title(), fmt.Sprint(len(fs)), worst})
	}
	verdict := "pass (deployable)"
	if rep.HasErrors() {
		verdict = fmt.Sprintf("FAIL: %d error finding(s)", rep.Errors())
	}
	return Table{
		ID:     "lint",
		Title:  "Static verification of the §5 prototype deployment",
		Header: []string{"rule", "title", "findings", "worst"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("gate verdict: %s", verdict),
			fmt.Sprintf("%d finding(s) total: %d error, %d warn, %d info",
				len(rep.Findings), rep.Errors(), rep.Warnings(), len(rep.BySeverity(lint.SevInfo))),
		},
	}, nil
}

// Chaos soaks the §5 prototype under seeded fault schedules — port
// flaps, wire corruption, recirculation overloads, flaky control-plane
// writes — with the self-healing reconciler repairing after every
// event. One row per seed; the run is deterministic, so the table is
// reproducible bit for bit. An "ok" verdict means every invariant held
// on every tick: no chain silently blackholed, capacity bookkeeping
// consistent with the switch, deployment lint-clean after each repair.
func Chaos() (Table, error) {
	const ticks = 40
	var rows [][]string
	for _, seed := range []int64{1, 7, 42} {
		res, err := soak(seed, ticks, 0)
		if err != nil {
			return Table{}, err
		}
		verdict := "ok"
		if !res.OK() {
			verdict = fmt.Sprintf("%d VIOLATION(S)", len(res.Violations))
		}
		rows = append(rows, []string{
			fmt.Sprint(seed), fmt.Sprint(res.Events),
			fmt.Sprintf("%d/%d", res.Delivered, res.Probes),
			fmt.Sprint(res.Dropped), fmt.Sprint(res.Repoints),
			fmt.Sprintf("%d/%d", res.Driver.Retries, res.Driver.Writes),
			fmt.Sprintf("%d/%d", res.Findings.Errors(), res.Findings.Warnings()),
			verdict,
		})
	}
	return Table{
		ID:     "chaos",
		Title:  fmt.Sprintf("Fault-injection soak over the §5 prototype (%d ticks/seed)", ticks),
		Header: []string{"seed", "events", "delivered", "dropped", "repoints", "retries", "err/warn", "invariants"},
		Rows:   rows,
		Notes: []string{
			"dropped packets are always attributed (wire loss, overload, dead egress) — never silent",
			"retries are control-plane writes recovered by the backoff driver",
		},
	}, nil
}

// Fabric soaks the edge-cloud chain set segmented over a 3-switch
// fabric under seeded fabric fault schedules — switch kills, link
// cuts, wire corruption windows, flaky program writes — with the
// fabric reconciler re-placing chains over the surviving topology
// after every tick. One row per seed; deterministic, so the table is
// reproducible bit for bit. An "ok" verdict means every fabric
// invariant held: probes delivered, attributably dropped, exempted by
// an open corruption window or aimed at a reported blackhole — never
// silently lost — and segmentation chain-consecutive throughout. The
// retries column reads retries/writes, a write being one branching
// entry or one pipelet program of a switch's minimal write-set.
func Fabric() (Table, error) {
	const ticks = 40
	var rows [][]string
	for _, seed := range []int64{1, 7, 42} {
		res, err := soak(seed, ticks, 3)
		if err != nil {
			return Table{}, err
		}
		verdict := "ok"
		if !res.OK() {
			verdict = fmt.Sprintf("%d VIOLATION(S)", len(res.Violations))
		}
		rows = append(rows, []string{
			fmt.Sprint(seed), fmt.Sprint(res.Events),
			fmt.Sprintf("%d/%d", res.Delivered, res.Probes),
			fmt.Sprint(res.BlackholedProbes),
			fmt.Sprint(res.Replacements),
			fmt.Sprintf("%d (max %dt)", res.Convergences, res.MaxConvergeTicks),
			fmt.Sprintf("%d/%d", res.Driver.Retries, res.Driver.Writes),
			verdict,
		})
	}
	return Table{
		ID:     "fabric",
		Title:  fmt.Sprintf("Fabric fault-tolerance soak over a 3-switch path (%d ticks/seed)", ticks),
		Header: []string{"seed", "events", "delivered", "blackholed", "re-programs", "convergences", "retries", "invariants"},
		Rows:   rows,
		Notes: []string{
			"blackholed probes target chains the reconciler reported as unplaceable on the surviving switches",
			"re-programs are per-switch program transactions committed through the retrying driver",
		},
	}, nil
}

// soak runs core.EdgeSoak's scenario.
func soak(seed int64, ticks, switches int) (*core.SoakResult, error) {
	s, err := core.EdgeSoak(seed, ticks, switches)
	if err != nil {
		return nil, err
	}
	return core.RunSoak(s)
}

// applyIntent builds the Apply experiment's base intent in code
// (structurally a trimmed examples/intent/intent.json): two chains over
// three NFs under the annealing optimizer, so the seed genuinely
// parameterizes placement.
func applyIntent(seed int64) *intent.Document {
	return &intent.Document{
		SchemaVersion: intent.Version,
		Name:          "apply-bench",
		File: config.File{
			Profile: "wedge100b", Optimizer: "anneal", Enter: 0,
			LoopbackPorts: []int{16, 17},
			Chains: []config.ChainSpec{
				{PathID: 10, NFs: []string{"classifier", "fw", "router"}, Weight: 0.7},
				{PathID: 30, NFs: []string{"classifier", "router"}, Weight: 0.3},
			},
			Classifier: &config.ClassifierSpec{
				DefaultPath: 30, DefaultIndex: 2,
				Rules: []config.ClassMap{
					{Dst: "203.0.113.80/32", Proto: "tcp", Priority: 20, Path: 10, InitialIndex: 3},
				},
			},
			Firewall: &config.FirewallSpec{
				DefaultPermit: true,
				Rules:         []config.ACLRule{{Dst: "203.0.113.80/32", Priority: 10, Permit: false}},
			},
			Router: &config.RouterSpec{
				Routes: []config.RouteSpec{
					{Prefix: "0.0.0.0/0", Port: 1, DstMAC: "02:de:1a:00:00:fe", SrcMAC: "02:de:1a:00:00:01"},
				},
			},
		},
		AnnealSeed: seed,
	}
}

// Apply records the declarative config plane's write-set: for each
// seed, what an initial apply, a proved no-op re-apply, a one-chain
// delta, and a full-fleet (3-switch fabric) apply with its no-op
// re-apply push. Action counts come from the semantic differ; entries
// and reloads are the write the converger actually pushed — the no-op
// rows prove the idempotency contract (docs/INTENT.md) with zeros.
// Apply latency is timed by the repository benchmark (bench/,
// apply-churn), not here.
func Apply() (Table, error) {
	var rows [][]string
	row := func(seed int64, scenario string, rep *intent.Report) {
		d := intent.Delta{Actions: rep.Actions, Global: rep.Global}
		rows = append(rows, []string{
			fmt.Sprint(seed), scenario,
			fmt.Sprintf("%d/%d/%d", d.Count(intent.KindAdd), d.Count(intent.KindRemove), d.Count(intent.KindUpdate)),
			fmt.Sprint(rep.DeltaEntries), fmt.Sprint(rep.ProgramReloads),
		})
	}
	for _, seed := range []int64{1, 7, 42} {
		base := applyIntent(seed)
		applier := intent.NewApplier(nil)
		rep, err := applier.Apply(base, intent.Options{})
		if err != nil {
			return Table{}, err
		}
		row(seed, "initial", rep)
		if rep, err = applier.Apply(base.Clone(), intent.Options{}); err != nil {
			return Table{}, err
		}
		if !rep.NoOp {
			return Table{}, fmt.Errorf("experiments: seed %d re-apply not a proved no-op", seed)
		}
		row(seed, "no-op re-apply", rep)

		delta := base.Clone()
		delta.Chains = append(delta.Chains, config.ChainSpec{
			PathID: 20, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1,
		})
		if rep, err = applier.Apply(delta, intent.Options{}); err != nil {
			return Table{}, err
		}
		row(seed, "one-chain delta", rep)

		fleet := applyIntent(seed)
		fleet.Fabric = &intent.FabricSpec{
			Switches:    3,
			StageDemand: map[string]int{"classifier": 6, "fw": 6, "router": 6},
		}
		fleetApplier := intent.NewApplier(nil)
		if rep, err = fleetApplier.Apply(fleet, intent.Options{}); err != nil {
			return Table{}, err
		}
		row(seed, "fleet apply (3 switches)", rep)
		if rep, err = fleetApplier.Apply(fleet.Clone(), intent.Options{}); err != nil {
			return Table{}, err
		}
		if !rep.NoOp {
			return Table{}, fmt.Errorf("experiments: seed %d fleet re-apply not a proved no-op", seed)
		}
		row(seed, "fleet no-op re-apply", rep)
	}
	return Table{
		ID:     "apply",
		Title:  "Declarative apply write-set by scenario",
		Header: []string{"seed", "scenario", "add/rem/upd", "entries", "reloads"},
		Rows:   rows,
		Notes: []string{
			"no-op rows must show 0 entries and 0 reloads: the idempotency proof of `dejavu apply`",
			"seeds parameterize the annealing placement",
		},
	}, nil
}

// experiment is one regenerable table: its ID and the function that
// runs it.
type experiment struct {
	id  string
	run func() (Table, error)
}

// catalog is the one experiment table, in run order: All, ByID and
// IDs all read it.
var catalog = []experiment{
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8a", Fig8a},
	{"fig8b", Fig8b},
	{"table1", Table1},
	{"fig9", Fig9},
	{"emul", Emulation},
	{"softgap", SoftwareGap},
	{"multiswitch", MultiSwitch},
	{"lint", LintReport},
	{"chaos", Chaos},
	{"fabric", Fabric},
	{"fabricplace", FabricPlace},
	{"dvtel", Dvtel},
	{"apply", Apply},
}

// All runs every experiment in order.
func All() ([]Table, error) {
	out := make([]Table, 0, len(catalog))
	for _, e := range catalog {
		t, err := e.run()
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID runs one experiment by its table ID.
func ByID(id string) (Table, error) {
	for _, e := range catalog {
		if e.id == id {
			return e.run()
		}
	}
	return Table{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, len(catalog))
	for i, e := range catalog {
		ids[i] = e.id
	}
	return ids
}
