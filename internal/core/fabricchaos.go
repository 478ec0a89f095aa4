package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"dejavu/internal/cluster"
	"dejavu/internal/fault"
	"dejavu/internal/scenario"
)

// This file is the fabric target of the chaos soak (chaos.go): switch
// kills, link cuts and wire corruption windows, the fabric reconciler
// as the round, and the fabric-level invariants.

// fabricTarget is a multi-switch fabric under the soak.
type fabricTarget struct {
	fd     *cluster.FabricDeployment
	rec    *cluster.Reconciler
	inj    *fault.Injector
	lastNF map[uint16]string // each chain's last NF, whose home is its exit switch
}

// newFabricTarget wires s.Config's chains and NFs over a spine fabric
// of s.Switches switches and hands the fabric's faults to inj: its wire
// hook and every switch's driver.
func newFabricTarget(s Soak, inj *fault.Injector) (soakTarget, error) {
	f, err := cluster.NewSpineFabric(s.Config.Prof, s.Switches)
	if err != nil {
		return nil, err
	}
	fd, err := cluster.NewFabricDeployment(f, s.Config.Chains, s.Config.NFs, s.StageDemand)
	if err != nil {
		return nil, err
	}
	fd.Control = cmp.Or(s.Telemetry, fd.Control)
	t := &fabricTarget{fd: fd, rec: cluster.NewReconciler(fd), inj: inj, lastNF: make(map[uint16]string)}
	f.SetWireHook(inj.WireHook)
	for i := range fd.Drivers {
		fd.Drivers[i] = flakyDriver(fd.Controllers[i], inj)
	}
	for _, c := range fd.Chains {
		t.lastNF[c.PathID] = c.NFs[len(c.NFs)-1]
	}
	return t, nil
}

// refuse names a fault the fabric cannot apply: a fault of one switch
// other than a table-write failure (no fabric switch has a fault hook),
// a switch the fabric lacks, and a link fault on a port no wire leaves.
func (t *fabricTarget) refuse(ev fault.Event) error {
	link := ev.Kind == fault.LinkCut || ev.Kind == fault.LinkRestore || ev.Kind == fault.WireCorruptWindow
	switch n := len(t.fd.Fabric.Switches); {
	case !ev.Kind.Fabric() && ev.Kind != fault.TableWriteFail:
		return fmt.Errorf("a fabric applies no %s", ev.Kind)
	case ev.Switch < 0 || ev.Switch >= n:
		return fmt.Errorf("the fabric has no switch %d (%d switches)", ev.Switch, n)
	case link && !slices.ContainsFunc(t.fd.Fabric.Wires(), func(w cluster.Wire) bool {
		return w.FromSw == ev.Switch && w.FromPort == ev.Port
	}):
		return fmt.Errorf("no wire leaves switch %d port %d", ev.Switch, ev.Port)
	}
	return nil
}

func (t *fabricTarget) finish(r *SoakResult) {
	r.AliveAtEnd = t.fd.Fabric.AliveSwitches()
	for _, id := range cluster.SortedKeys(t.fd.Routes) {
		cr := t.fd.Routes[id]
		r.Routes = append(r.Routes, ChainRouteRecord{Chain: id, Path: cr.Path, Segments: cr.Segments, CrossHops: cr.CrossHops})
	}
	for _, d := range t.fd.Drivers {
		st := d.Stats()
		r.Driver.Writes += st.Writes
		r.Driver.Retries += st.Retries
		r.Driver.Failures += st.Failures
		r.Driver.BackedOff += st.BackedOff
	}
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
	if plan, err := t.fd.Plan(t.fd.Chains); err != nil {
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
