package core

import (
	"cmp"
	"fmt"
	"strings"

	"dejavu/internal/cluster"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// This file is the fabric target of the chaos soak (chaos.go): switch
// kills, link cuts and wire corruption windows, the fabric reconciler
// as the round, and the fabric-level invariants.

// FabricChaosOpts parameterizes a fabric chaos run.
type FabricChaosOpts struct {
	Seed int64
	// Ticks is the timeline length; zero means 40.
	Ticks int
	// Switches is the fabric size; zero means 3 (minimum 2). The
	// fabric is wired 0->1->...->n-1 on port 10 with skip wires
	// i->i+2 on port 11, so any single switch death leaves a path.
	Switches int
	// Telemetry, when set, is the set the soak's fabric deployment
	// records its rounds into instead of its own (the run's final
	// readings are in the result either way).
	Telemetry *telemetry.Control
}

// RunFabricChaos builds the §5 edge-cloud chain set on a multi-switch
// fabric and soaks it under a seeded fabric fault schedule. Fully
// deterministic: the same opts produce the identical result and log.
func RunFabricChaos(opts FabricChaosOpts) (*SoakResult, error) {
	n := cmp.Or(opts.Switches, 3)
	if n < 2 {
		return nil, fmt.Errorf("core: fabric chaos: switches is %d, need at least 2", n)
	}
	res, err := newSoak(opts.Seed, opts.Ticks, n)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.New()
	if err != nil {
		return nil, err
	}
	f, err := cluster.NewSpineFabric(sc.Prof, n)
	if err != nil {
		return nil, err
	}
	// Every NF takes 8 stages (+2 framework overhead = 10 placement
	// units), so the 5-NF chain set needs two 48-stage switches and the
	// reconciler has real segmentation work to do.
	demand := map[string]int{"classifier": 8, "fw": 8, "vgw": 8, "lb": 8, "router": 8}
	fd, err := cluster.NewFabricDeployment(f, sc.Chains, sc.NFs, demand)
	if err != nil {
		return nil, err
	}
	fd.Control = cmp.Or(opts.Telemetry, fd.Control)

	// Pre-install the LB session so the full path needs no punt.
	vip := scenario.ClientTCP(443)
	ftuple, _ := vip.FiveTuple()
	backend, err := sc.LB.SelectBackend(scenario.VIP, ftuple.Hash())
	if err == nil {
		err = sc.LB.InstallSession(ftuple.Hash(), backend)
	}
	if err != nil {
		return nil, err
	}

	// One fault timeline: fabric faults at the generator's default rate
	// (the entry switch protected, every wire fair game), then write
	// failures against every switch's pipelet-program table, so
	// reconvergence always flows through the retrying driver.
	var links []fault.FabricLink
	for _, w := range f.Wires() {
		links = append(links, fault.FabricLink{Sw: w.FromSw, Port: w.FromPort})
	}
	sched := append(fault.RandomFabricSchedule(opts.Seed, fault.FabricScheduleOpts{
		Ticks: res.Ticks, Switches: n, ProtectedSwitches: []int{0}, Links: links,
	}), fault.RandomSchedule(opts.Seed, fault.ScheduleOpts{
		Ticks:         res.Ticks,
		Tables:        []fault.TableRef{{NF: ctl.FrameworkNF, Table: ctl.PipeletProgramTable}},
		EventsPerTick: 0.3,
	})...)
	t := &fabricTarget{fd: fd, rec: cluster.NewReconciler(fd), inj: fault.NewInjector(opts.Seed, sched), lastNF: make(map[uint16]string)}
	f.SetWireHook(t.inj.WireHook)
	for i := range fd.Drivers {
		fd.Drivers[i] = flakyDriver(fd.Controllers[i], t.inj)
	}
	for _, c := range fd.Chains {
		t.lastNF[c.PathID] = c.NFs[len(c.NFs)-1]
	}

	res.run(t, t.inj, scenario.Probes())
	res.AliveAtEnd = f.AliveSwitches()
	for _, id := range cluster.SortedKeys(fd.Routes) {
		r := fd.Routes[id]
		res.Routes = append(res.Routes, ChainRouteRecord{Chain: id, Path: r.Path, Segments: r.Segments, CrossHops: r.CrossHops})
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

// fabricTarget is a multi-switch fabric under the soak.
type fabricTarget struct {
	fd     *cluster.FabricDeployment
	rec    *cluster.Reconciler
	inj    *fault.Injector
	lastNF map[uint16]string // each chain's last NF, whose home is its exit switch
}

// apply applies a switch or link change to the fabric. The injector
// itself serves wire corruption and the drivers' write failures.
func (t *fabricTarget) apply(_ *SoakResult, ev fault.Event) error {
	switch f := t.fd.Fabric; ev.Kind {
	case fault.SwitchKill:
		return f.KillSwitch(ev.Switch)
	case fault.SwitchRevive:
		return f.ReviveSwitch(ev.Switch)
	case fault.LinkCut:
		return f.CutLink(ev.Switch, ev.Port)
	case fault.LinkRestore:
		return f.RestoreLink(ev.Switch, ev.Port)
	}
	return nil
}

// round runs one fabric reconcile round. A failed round (transaction
// aborted or rolled back) leaves the installed state consistent, and
// its findings name the failure.
func (t *fabricTarget) round(r *SoakResult) (int, error) {
	rep, err := t.rec.Reconcile()
	for _, f := range rep.Findings.Findings {
		r.Findings.Add(f)
	}
	if err != nil {
		return 0, err
	}
	if len(rep.Changed) > 0 {
		r.logf("heal: reprogrammed switches %v", rep.Changed)
	}
	r.ChainReplacements += len(rep.Replaced)
	return len(rep.Changed), nil
}

// probe injects one probe at the entry switch. An open corruption
// window on the chain's installed route can destroy, mangle or
// misroute it, so its outcome is exempt; a probe at a blackholed chain
// must not deliver; a delivered probe must exit the switch hosting its
// chain's last NF.
func (t *fabricTarget) probe(r *SoakResult, pr scenario.Probe) {
	r.Probes++
	ft, err := t.fd.Fabric.Inject(0, pr.Port, pr.Packet())
	_, blackholed := t.fd.Blackholed[pr.PathID]
	switch {
	case err != nil:
		r.violate("probe %s: inject failed: %v", pr.Name, err)
	case t.corrupting(pr.PathID):
		r.CorruptExempt++
		r.logf("probe %s: corrupt-exempt (window open on chain route)", pr.Name)
	case blackholed:
		r.BlackholedProbes++
		if len(ft.Out) > 0 {
			r.violate("probe %s: blackholed chain %d delivered traffic", pr.Name, pr.PathID)
		} else {
			r.logf("probe %s: blackholed as reported", pr.Name)
		}
	case pr.Verify(ft.Out) == nil:
		r.Delivered++
		if want, placed := t.fd.Homes[t.lastNF[pr.PathID]]; placed && ft.OutSwitch[0] != want {
			r.violate("probe %s: exited switch %d, chain's last NF lives on switch %d", pr.Name, ft.OutSwitch[0], want)
		}
		r.logf("probe %s: delivered switch %d port %d (%d hop(s))", pr.Name, ft.OutSwitch[0], ft.Out[0].Port, ft.Hops)
	case len(ft.DropReasons) > 0:
		r.Dropped++
		r.logf("probe %s: dropped (%s)", pr.Name, strings.Join(ft.DropReasons, "; "))
	default:
		r.violate("probe %s: silently blackholed (out=%d dropped=%v)", pr.Name, len(ft.Out), ft.Dropped)
	}
}

// corrupting reports whether a corruption window is open on a wire the
// chain's installed route crosses.
func (t *fabricTarget) corrupting(chain uint16) bool {
	cr := t.fd.Routes[chain]
	for i, port := range cr.Ports {
		if t.inj.CorruptionOpen(cr.Path[i], port) {
			return true
		}
	}
	return false
}

// check audits a converged fabric: every installed route is
// well-formed and hosts its chain's NFs in order, and no chain stays
// blackholed while the placement engine still finds it a feasible
// placement on the surviving subgraph. A failed round is not audited:
// the next round retries it.
func (t *fabricTarget) check(r *SoakResult, roundFailed bool) {
	if roundFailed {
		return
	}
	checkFabricRoutes(t.fd, r.violate)
	if plan, err := t.fd.Plan(); err != nil {
		r.violate("plan fails on a converged fabric: %v", err)
	} else {
		checkBlackholed(t.fd.Blackholed, plan.Blackholed, r.violate)
	}
}

// checkBlackholed holds the installed blackhole set to the current
// plan's, in chain order: no chain stays blackholed while the plan can
// place it, and none carries traffic the plan cannot place.
func checkBlackholed(installed, planned map[uint16]string, violate func(string, ...any)) {
	for _, id := range cluster.SortedKeys(installed) {
		if _, still := planned[id]; !still {
			violate("chain %d stays blackholed while a feasible placement exists", id)
		}
	}
	for _, id := range cluster.SortedKeys(planned) {
		if _, have := installed[id]; !have {
			violate("chain %d carries traffic but the current plan cannot place it", id)
		}
	}
}

// checkFabricRoutes audits every installed per-chain route: each
// active chain has one, it is structurally well-formed (entry-rooted,
// ports parallel to hops), its segments concatenate to exactly the
// chain's NF sequence, every NF executes on its recorded home switch,
// and no blackholed chain holds a route.
func checkFabricRoutes(fd *cluster.FabricDeployment, violate func(string, ...any)) {
	for _, c := range fd.Chains {
		r, ok := fd.Routes[c.PathID]
		if _, blackholed := fd.Blackholed[c.PathID]; blackholed {
			if ok {
				violate("routes: blackholed chain %d still holds a route %v", c.PathID, r.Path)
			}
			continue
		}
		if !ok {
			violate("routes: active chain %d has no installed route", c.PathID)
			continue
		}
		if len(r.Path) == 0 || r.Path[0] != 0 {
			violate("routes: chain %d route %v does not start at the entry switch", c.PathID, r.Path)
			continue
		}
		if len(r.Segments) != len(r.Path) || len(r.Ports) != len(r.Path)-1 {
			violate("routes: chain %d route malformed (path %d, segments %d, ports %d)",
				c.PathID, len(r.Path), len(r.Segments), len(r.Ports))
			continue
		}
		var flat []string
		for pos, seg := range r.Segments {
			for _, n := range seg {
				flat = append(flat, n)
				if home, placed := fd.Homes[n]; !placed || home != r.Path[pos] {
					violate("routes: chain %d executes NF %q on switch %d but its home is %v",
						c.PathID, n, r.Path[pos], home)
				}
			}
		}
		if len(flat) != len(c.NFs) {
			violate("routes: chain %d segments hold %d NFs, chain has %d", c.PathID, len(flat), len(c.NFs))
			continue
		}
		for i, n := range c.NFs {
			if flat[i] != n {
				violate("routes: chain %d executes %q at step %d, want %q", c.PathID, flat[i], i, n)
			}
		}
	}
}
