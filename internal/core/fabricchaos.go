package core

import (
	"fmt"
	"strings"
	"time"

	"dejavu/internal/cluster"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// This file is the fabric chaos harness: it replays a seeded fabric
// fault schedule (switch kills, link cuts, wire corruption windows)
// against a multi-switch deployment, runs the fabric reconciler after
// every tick, probes every chain end-to-end across the fabric, and
// checks the fabric-level operational invariants — no chain stays
// blackholed while the placement engine can still place it on the
// surviving subgraph, every installed per-chain route is well-formed
// and hosts the chain's NFs in order, and every probe outcome is
// attributable. The same seed always reproduces the identical event
// sequence, reconciler decisions and log.

// FabricChaosOpts parameterizes a fabric chaos run.
type FabricChaosOpts struct {
	Seed int64
	// Ticks is the timeline length; zero means 40.
	Ticks int
	// Switches is the fabric size; zero means 3 (minimum 2). The
	// fabric is wired 0->1->...->n-1 on port 10 with skip wires
	// i->i+2 on port 11, so any single switch death leaves a path.
	Switches int
	// Telemetry receives per-round fabric gauges; nil allocates a
	// private collector (the run's final readings are in the result
	// either way).
	Telemetry *telemetry.Fabric
}

// FabricChaosResult is the outcome of one fabric chaos run. The JSON
// shape is the `dejavu chaos -switches N -json` document (docs/CLI.md).
type FabricChaosResult struct {
	Seed     int64 `json:"seed"`
	Ticks    int   `json:"ticks"`
	Switches int   `json:"switches"`
	// Events is the number of fabric fault events fired.
	Events int `json:"events"`
	// Probe accounting: every probe is delivered to its chain's exit,
	// dropped with a fabric-attributable reason, exempted by an open
	// corruption window on the active path, or aimed at a blackholed
	// chain — anything else is a violation.
	Probes           int `json:"probes"`
	Delivered        int `json:"delivered"`
	Dropped          int `json:"dropped"`
	CorruptExempt    int `json:"corrupt_exempt"`
	BlackholedProbes int `json:"blackholed_probes"`
	// Reconciles counts reconcile rounds; Replacements counts switch
	// program transactions committed by them; ChainReplacements counts
	// per-chain route changes observed across the run.
	Reconciles        int `json:"reconciles"`
	Replacements      int `json:"replacements"`
	ChainReplacements int `json:"chain_replacements"`
	// Convergences counts completed reconvergences and
	// MaxConvergeTicks the longest time-to-repair observed.
	Convergences     int `json:"convergences"`
	MaxConvergeTicks int `json:"max_converge_ticks"`
	// WireLosses counts packets corruption windows destroyed on wires.
	WireLosses int `json:"wire_losses"`
	// AliveAtEnd is the alive-switch count after the last tick.
	AliveAtEnd int `json:"alive_at_end"`
	// Driver aggregates control-plane retry statistics across every
	// switch's program-write driver.
	Driver fault.DriverStats `json:"driver"`
	// Routes is the final installed per-chain placement: each active
	// chain's switch route and per-position NF segments.
	Routes []ChainRouteRecord `json:"routes"`
	// Findings accumulates every reconcile round's FB findings.
	Findings *lint.Report `json:"degradation"`
	// Violations lists invariant breaches; empty means the run passed.
	Violations []string `json:"violations"`
	// Log is the deterministic transcript of the run.
	Log []string `json:"log,omitempty"`
}

// ChainRouteRecord is one chain's installed placement in the
// `dejavu chaos -switches N -json` document: the switch sequence its traffic
// follows and the NFs executed at each position (empty for transit).
type ChainRouteRecord struct {
	Chain     uint16     `json:"chain"`
	Path      []int      `json:"path"`
	Segments  [][]string `json:"segments"`
	CrossHops int        `json:"cross_hops"`
}

// OK reports whether the run held every invariant.
func (r *FabricChaosResult) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-paragraph result overview.
func (r *FabricChaosResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fabric chaos seed %d: %d switches, %d ticks, %d fault events\n",
		r.Seed, r.Switches, r.Ticks, r.Events)
	fmt.Fprintf(&sb, "probes: %d total, %d delivered, %d dropped (attributed), %d corrupt-exempt, %d blackholed\n",
		r.Probes, r.Delivered, r.Dropped, r.CorruptExempt, r.BlackholedProbes)
	fmt.Fprintf(&sb, "healing: %d reconcile rounds, %d program transactions, %d chain re-places, %d reconvergences (max %d tick(s))\n",
		r.Reconciles, r.Replacements, r.ChainReplacements, r.Convergences, r.MaxConvergeTicks)
	fmt.Fprintf(&sb, "wire losses: %d; driver: %d writes, %d retries, %d failures; alive at end: %d/%d\n",
		r.WireLosses, r.Driver.Writes, r.Driver.Retries, r.Driver.Failures, r.AliveAtEnd, r.Switches)
	fmt.Fprintf(&sb, "degradation findings: %d (%d error, %d warn)\n",
		len(r.Findings.Findings), r.Findings.Errors(), r.Findings.Warnings())
	if r.OK() {
		sb.WriteString("invariants: all held\n")
	} else {
		fmt.Fprintf(&sb, "invariants: %d VIOLATION(S)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&sb, "  %s\n", v)
		}
	}
	return sb.String()
}

// fabricStageDemand inflates every edge-cloud NF to 8 stages (+2
// framework overhead = 10 placement units), so the 5-NF chain set
// needs two 48-stage switches and the reconciler has real segmentation
// work to do.
func fabricStageDemand() map[string]int {
	d := make(map[string]int)
	for _, n := range []string{"classifier", "fw", "vgw", "lb", "router"} {
		d[n] = 8
	}
	return d
}

// RunFabricChaos builds the §5 edge-cloud chain set on a multi-switch
// fabric, replays a seeded fabric fault schedule against it tick by
// tick — reconciling, probing every chain across the fabric and
// checking invariants after every tick — and returns the accumulated
// result. Fully deterministic: the same opts produce the identical
// result and log.
func RunFabricChaos(opts FabricChaosOpts) (*FabricChaosResult, error) {
	n := opts.Switches
	if n <= 0 {
		n = 3
	}
	if n < 2 {
		return nil, fmt.Errorf("core: fabric chaos needs at least 2 switches")
	}
	ticks := opts.Ticks
	if ticks <= 0 {
		ticks = 40
	}

	s, err := scenario.New()
	if err != nil {
		return nil, err
	}
	f, err := cluster.NewSpineFabric(s.Prof, n)
	if err != nil {
		return nil, err
	}
	fd, err := cluster.NewFabricDeployment(f, s.Chains, s.NFs, fabricStageDemand())
	if err != nil {
		return nil, err
	}

	// Pre-install the LB session so the full path needs no punt.
	vip := scenario.ClientTCP(443)
	ftuple, _ := vip.FiveTuple()
	backend, err := s.LB.SelectBackend(scenario.VIP, ftuple.Hash())
	if err != nil {
		return nil, err
	}
	if err := s.LB.InstallSession(ftuple.Hash(), backend); err != nil {
		return nil, err
	}

	// Fabric fault timeline, at the generator's default rate: the entry
	// switch is protected (without it no chain can carry traffic at all),
	// every wire is fair game.
	var links []fault.FabricLink
	for _, w := range f.Wires() {
		links = append(links, fault.FabricLink{Sw: w.FromSw, Port: w.FromPort})
	}
	sched := fault.RandomFabricSchedule(opts.Seed, fault.FabricScheduleOpts{
		Ticks:             ticks,
		Switches:          n,
		ProtectedSwitches: []int{0},
		Links:             links,
	})
	finj := fault.NewFabricInjector(opts.Seed, sched)
	f.SetWireHook(finj.WireHook)

	// Control-plane faults: scheduled write failures against the
	// pipelet-program table on every switch, so reconvergence always
	// flows through the retrying driver's recovery path.
	tableInj := fault.NewInjector(opts.Seed, fault.RandomSchedule(opts.Seed, fault.ScheduleOpts{
		Ticks:         ticks,
		Tables:        []fault.TableRef{{NF: ctl.FrameworkNF, Table: ctl.PipeletProgramTable}},
		EventsPerTick: 0.3,
	}))
	for i := range fd.Drivers {
		fd.Drivers[i] = &fault.Driver{
			Applier: fault.NewFlakyApplier(fd.Controllers[i], tableInj),
			Sleep:   func(time.Duration) {}, // never block a simulated run
		}
	}

	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewFabric()
	}
	rec := cluster.NewReconciler(fd)

	probes := scenario.Probes()
	lastNF := make(map[uint16]string)
	for _, c := range fd.Chains {
		lastNF[c.PathID] = c.NFs[len(c.NFs)-1]
	}

	res := &FabricChaosResult{
		Seed: opts.Seed, Ticks: ticks, Switches: n,
		Findings: lint.NewReport(),
	}
	logf := func(format string, args ...any) {
		res.Log = append(res.Log, fmt.Sprintf(format, args...))
	}
	violate := func(tick int, format string, args ...any) {
		v := fmt.Sprintf("t%03d ", tick) + fmt.Sprintf(format, args...)
		res.Violations = append(res.Violations, v)
		logf("%s VIOLATION", v)
	}

	degradedSince := 0 // first tick of the current un-converged stretch
	unconverged := false
	for tick := 1; tick <= ticks; tick++ {
		// 1. Fire the tick's fabric faults and arm control-plane faults.
		for _, ev := range finj.Advance(f) {
			res.Events++
			logf("%s", ev)
		}
		tableInj.Advance(nil)

		// 2. One reconcile round. A failed round (transaction aborted or
		// rolled back) leaves the installed state consistent; the next
		// round retries from scratch.
		rep, recErr := rec.Reconcile()
		res.Reconciles++
		if rep != nil {
			for _, fdg := range rep.Findings.Findings {
				res.Findings.Add(fdg)
			}
		}
		if recErr != nil {
			logf("t%03d reconcile failed: %v", tick, recErr)
			if degradedSince == 0 {
				degradedSince = tick
			}
			unconverged = true
		} else {
			if len(rep.Changed) > 0 {
				since := degradedSince
				if since == 0 {
					since = tick
				}
				lat := tick - since + 1
				res.Convergences++
				if lat > res.MaxConvergeTicks {
					res.MaxConvergeTicks = lat
				}
				tel.ObserveConvergence(lat)
				logf("t%03d converged over switches %v in %d tick(s)", tick, rep.Switches, lat)
			}
			degradedSince = 0
			unconverged = false
		}
		tel.ObserveReconcile(f.AliveSwitches(), f.NumSwitches(), len(fd.Blackholed), len(rep.Changed))
		if recErr == nil {
			res.ChainReplacements += len(rep.Replaced)
			replaced := make(map[uint16]bool, len(rep.Replaced))
			for _, id := range rep.Replaced {
				replaced[id] = true
			}
			for _, id := range cluster.SortedKeys(fd.Routes) {
				r := fd.Routes[id]
				tel.ObservePlacement(id, len(r.Path), r.CrossHops, replaced[id])
			}
		}

		// 3. Invariants: every installed route is well-formed and hosts
		// its chain's NFs in order, and no chain stays blackholed while
		// the placement engine still finds it a feasible placement on
		// the surviving subgraph.
		if !unconverged {
			checkFabricRoutes(fd, tick, violate)
			plan, err := fd.Plan()
			if err != nil {
				violate(tick, "plan fails on a converged fabric: %v", err)
			} else {
				checkBlackholed(fd.Blackholed, plan.Blackholed, tick, violate)
			}
		}

		// 4. Probe every chain end-to-end across the fabric. Corruption
		// windows are scoped per chain: an open window exempts only the
		// chains whose installed route crosses that wire.
		corruptOn := make(map[uint16]bool)
		for id, r := range fd.Routes {
			for i, port := range r.Ports {
				if finj.CorruptionOpen(r.Path[i], port) {
					corruptOn[id] = true
				}
			}
		}
		for _, pr := range probes {
			if unconverged {
				logf("t%03d probe %s: suppressed, fabric not converged", tick, pr.Name)
				continue
			}
			res.Probes++
			ft, err := f.Inject(0, pr.Port, pr.Packet())
			if err != nil {
				violate(tick, "probe %s: inject failed: %v", pr.Name, err)
				continue
			}
			_, blackholed := fd.Blackholed[pr.PathID]
			switch {
			case corruptOn[pr.PathID]:
				// An open corruption window on the active path can destroy,
				// mangle or misroute any probe; outcomes are exempt.
				res.CorruptExempt++
				logf("t%03d probe %s: corrupt-exempt (window open on chain route)", tick, pr.Name)
			case blackholed:
				res.BlackholedProbes++
				if len(ft.Out) > 0 {
					violate(tick, "probe %s: blackholed chain %d delivered traffic", pr.Name, pr.PathID)
				} else {
					logf("t%03d probe %s: blackholed as reported", tick, pr.Name)
				}
			case pr.Verify(ft.Out) == nil:
				res.Delivered++
				if want := fabricExitSwitch(fd, lastNF[pr.PathID]); want >= 0 && ft.OutSwitch[0] != want {
					violate(tick, "probe %s: exited switch %d, chain's last NF lives on switch %d",
						pr.Name, ft.OutSwitch[0], want)
				}
				logf("t%03d probe %s: delivered switch %d port %d (%d hop(s))",
					tick, pr.Name, ft.OutSwitch[0], ft.Out[0].Port, ft.Hops)
			case len(ft.DropReasons) > 0:
				res.Dropped++
				logf("t%03d probe %s: dropped (%s)", tick, pr.Name, strings.Join(ft.DropReasons, "; "))
			default:
				violate(tick, "probe %s: silently blackholed (out=%d dropped=%v)",
					pr.Name, len(ft.Out), ft.Dropped)
			}
		}
	}

	res.WireLosses = len(finj.Losses())
	res.AliveAtEnd = f.AliveSwitches()
	res.Replacements = fd.Replacements
	for _, id := range cluster.SortedKeys(fd.Routes) {
		r := fd.Routes[id]
		res.Routes = append(res.Routes, ChainRouteRecord{
			Chain: id, Path: r.Path, Segments: r.Segments, CrossHops: r.CrossHops,
		})
	}
	for _, d := range fd.Drivers {
		st := d.Stats()
		res.Driver.Writes += st.Writes
		res.Driver.Retries += st.Retries
		res.Driver.Failures += st.Failures
		res.Driver.BackedOff += st.BackedOff
	}
	return res, nil
}

// fabricExitSwitch returns the fabric switch hosting the named NF in
// the installed placement, or -1 if it is not placed.
func fabricExitSwitch(fd *cluster.FabricDeployment, name string) int {
	if sw, ok := fd.Homes[name]; ok {
		return sw
	}
	return -1
}

// checkBlackholed holds the installed blackhole set to the current
// plan's, in chain order: no chain stays blackholed while the plan can
// place it, and none carries traffic the plan cannot place.
func checkBlackholed(installed, planned map[uint16]string, tick int, violate func(int, string, ...any)) {
	for _, id := range cluster.SortedKeys(installed) {
		if _, still := planned[id]; !still {
			violate(tick, "chain %d stays blackholed while a feasible placement exists", id)
		}
	}
	for _, id := range cluster.SortedKeys(planned) {
		if _, have := installed[id]; !have {
			violate(tick, "chain %d carries traffic but the current plan cannot place it", id)
		}
	}
}

// checkFabricRoutes audits every installed per-chain route: each
// active chain has one, it is structurally well-formed (entry-rooted,
// ports parallel to hops), its segments concatenate to exactly the
// chain's NF sequence, every NF executes on its recorded home switch,
// and no blackholed chain holds a route.
func checkFabricRoutes(fd *cluster.FabricDeployment, tick int, violate func(int, string, ...any)) {
	for _, c := range fd.Chains {
		r, ok := fd.Routes[c.PathID]
		if _, blackholed := fd.Blackholed[c.PathID]; blackholed {
			if ok {
				violate(tick, "routes: blackholed chain %d still holds a route %v", c.PathID, r.Path)
			}
			continue
		}
		if !ok {
			violate(tick, "routes: active chain %d has no installed route", c.PathID)
			continue
		}
		if len(r.Path) == 0 || r.Path[0] != 0 {
			violate(tick, "routes: chain %d route %v does not start at the entry switch", c.PathID, r.Path)
			continue
		}
		if len(r.Segments) != len(r.Path) || len(r.Ports) != len(r.Path)-1 {
			violate(tick, "routes: chain %d route malformed (path %d, segments %d, ports %d)",
				c.PathID, len(r.Path), len(r.Segments), len(r.Ports))
			continue
		}
		var flat []string
		for pos, seg := range r.Segments {
			for _, n := range seg {
				flat = append(flat, n)
				if home, placed := fd.Homes[n]; !placed || home != r.Path[pos] {
					violate(tick, "routes: chain %d executes NF %q on switch %d but its home is %v",
						c.PathID, n, r.Path[pos], home)
				}
			}
		}
		if len(flat) != len(c.NFs) {
			violate(tick, "routes: chain %d segments hold %d NFs, chain has %d", c.PathID, len(flat), len(c.NFs))
			continue
		}
		for i, n := range c.NFs {
			if flat[i] != n {
				violate(tick, "routes: chain %d executes %q at step %d, want %q", c.PathID, flat[i], i, n)
			}
		}
	}
}
