package cluster

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/ctl"
	"dejavu/internal/fabricplace"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/nf"
	"dejavu/internal/pipeline"
	"dejavu/internal/place"
	"dejavu/internal/route"
	"dejavu/internal/telemetry"
)

// Fabric reconciler rule IDs, in the internal/lint findings format so
// fabric chaos reports read like the single-switch RC findings.
const (
	// RuleFBSwitchDown: a fabric switch is dead.
	RuleFBSwitchDown = "FB001"
	// RuleFBLinkDown: an inter-switch wire is cut.
	RuleFBLinkDown = "FB002"
	// RuleFBReplaced: chains were re-placed over the surviving
	// topology and the affected switches reprogrammed.
	RuleFBReplaced = "FB003"
	// RuleFBBlackhole: a chain's NFs no longer fit on the surviving
	// switches — the only error-severity degradation a healthy
	// reconcile can report.
	RuleFBBlackhole = "FB004"
	// RuleFBRestored: a previously blackholed chain carries traffic
	// again.
	RuleFBRestored = "FB005"
	// RuleFBConvergeFailed: a switch could not be reprogrammed (the
	// transaction aborted or rolled back).
	RuleFBConvergeFailed = "FB006"
)

// ChainRoute is one chain's installed placement on the fabric: the
// switch sequence its traffic follows from the entry, the egress port
// of each hop, and the NFs executed at each position (empty for pure
// transit positions). Since the topology-aware placer, every chain
// carries its own route — there is no fabric-wide path.
type ChainRoute struct {
	Path     []int         `json:"path"`
	Ports    []asic.PortID `json:"-"`
	Segments [][]string    `json:"segments"`
	// CrossHops counts the inter-switch wire crossings on the route.
	CrossHops int `json:"cross_hops"`
}

func (cr ChainRoute) equal(o ChainRoute) bool {
	return slices.Equal(cr.Path, o.Path) && slices.Equal(cr.Ports, o.Ports) &&
		slices.EqualFunc(cr.Segments, o.Segments, slices.Equal[[]string])
}

// FabricDeployment is a chain set live on a multi-switch fabric,
// managed by the Reconciler: it owns one controller and one retrying
// driver per switch, remembers the installed per-chain routes, and
// re-places chains over the surviving topology when elements fail.
type FabricDeployment struct {
	Fabric *Fabric
	Chains []route.Chain
	NFs    nf.List
	// StageDemand is each NF's MAU stage demand, the one map both
	// placers read. NewFabricDeployment completes the declared map with
	// compiler.MinStages of every implemented NF it lacks, so an entry
	// is an override: one below the NF's real demand plans a switch
	// program the build then refuses (DV001). NFs without an entry (a
	// model deployment has no implementations) count one stage.
	StageDemand map[string]int
	// Pins optionally force NFs onto specific home switches (the
	// intent plane's fabric placement hints). Set before the first
	// Reconcile.
	Pins map[string]int

	// Controllers and Drivers are per-switch (index-aligned with
	// Fabric.Switches). Tests and chaos harnesses may interpose a
	// FlakyApplier-backed Driver before the first Reconcile.
	Controllers []*ctl.Controller
	Drivers     []*fault.Driver

	// Installed state, updated by successful converges.
	Routes     map[uint16]ChainRoute // per-chain installed route
	Homes      map[string]int        // per-NF installed home switch
	Blackholed map[uint16]string
	// Control records every committed round: fabric health, the
	// transactions it committed, each installed route and each
	// convergence. NewFabricDeployment gives each deployment its own.
	Control *telemetry.Control

	// installed is each switch's installed build and its build cache:
	// one per switch, as one per single-switch deployment. A switch
	// whose installed composer has the desired chains and placement is
	// not rebuilt, so a health change converges per chain instead of
	// re-touching the whole fabric.
	installed []pipeline.Installed
	// last is the last successful plan of a committing round: planFor
	// returns it while what determined it holds, and a new plan takes
	// over its per-switch anneal results where the sub-chain sets match.
	last rememberedPlan
	// graphBuilds and anneals count planFor's two expensive steps, for
	// the tests that hold a round's cost to what changed.
	graphBuilds, anneals int
	// routes is record's buffer, reused round to round.
	routes []telemetry.Route
}

// NewFabricDeployment prepares a fabric deployment: per-switch
// controllers and retrying drivers over them, and the stage demand of
// every implemented NF stageDemand does not declare. Nothing is
// installed until the first Reconcile; wire the fabric (Connect) first.
func NewFabricDeployment(f *Fabric, chains []route.Chain, nfs nf.List, stageDemand map[string]int) (*FabricDeployment, error) {
	if err := checkChains(chains, nfs); err != nil {
		return nil, err
	}
	demand, err := withMinStages(stageDemand, nfs)
	if err != nil {
		return nil, err
	}
	fd := &FabricDeployment{
		Fabric:      f,
		Chains:      append([]route.Chain(nil), chains...),
		NFs:         nfs,
		StageDemand: demand,
		Routes:      make(map[uint16]ChainRoute),
		Homes:       make(map[string]int),
		Blackholed:  make(map[uint16]string),
		Control:     telemetry.NewControl(),
	}
	for _, sw := range f.Switches {
		fd.installed = append(fd.installed, pipeline.Installed{Cache: pipeline.NewCache()})
		ctrl := ctl.New(sw, nfs)
		fd.Controllers = append(fd.Controllers, ctrl)
		fd.Drivers = append(fd.Drivers, fault.NewDriver(ctrl))
	}
	return fd, nil
}

// withMinStages completes a declared stage-demand map with
// compiler.MinStages of each implemented NF it lacks.
func withMinStages(declared map[string]int, nfs nf.List) (map[string]int, error) {
	demand := maps.Clone(declared)
	for _, f := range nfs {
		if _, ok := demand[f.Name()]; ok {
			continue
		}
		d, err := compiler.MinStages(f.Block())
		if err != nil {
			return nil, fmt.Errorf("cluster: NF %s: %w", f.Name(), err)
		}
		if demand == nil {
			demand = make(map[string]int, len(nfs))
		}
		demand[f.Name()] = d
	}
	return demand, nil
}

// checkChains refuses an empty chain set, an invalid chain and, when
// the deployment has NF implementations, a chain naming an NF it has
// none of.
func checkChains(chains []route.Chain, nfs nf.List) error {
	if len(chains) == 0 {
		return fmt.Errorf("cluster: no chains to deploy")
	}
	for _, c := range chains {
		if err := c.Validate(); err != nil {
			return err
		}
		for _, n := range c.NFs {
			if len(nfs) > 0 && nfs.ByName(n) == nil {
				return fmt.Errorf("cluster: chain %d references unknown NF %q", c.PathID, n)
			}
		}
	}
	return nil
}

// SetChains replaces the fabric deployment's desired chain set (the
// intent plane calls this when an applied document's chains change);
// the next Reconcile converges every switch toward it. The installed
// state is left untouched here — convergence is the reconciler's job.
func (fd *FabricDeployment) SetChains(chains []route.Chain) error {
	if err := checkChains(chains, fd.NFs); err != nil {
		return err
	}
	fd.Chains = append([]route.Chain(nil), chains...)
	return nil
}

// Plan is the reconcile round toward chains stopped before its first
// write, the fabric's dry run behind `dejavu apply -dry-run`: it refuses
// what SetChains refuses and fails, stages and reports Writes exactly as
// that Reconcile would, touching no switch and not the remembered plan.
func (fd *FabricDeployment) Plan(chains []route.Chain) (*ReconcileReport, error) {
	if err := checkChains(chains, fd.NFs); err != nil {
		return nil, err
	}
	return fd.round(chains, false)
}

// placeOptions derives the placement engine's options from the
// deployment: entry switch 0, the packet hop bound as the route hop
// limit, and the profile-derived cost model.
func (fd *FabricDeployment) placeOptions() fabricplace.Options {
	prof := fd.Fabric.Prof
	return fabricplace.Options{
		Entry:         0,
		HopLimit:      maxFabricHops,
		StageDemand:   fd.StageDemand,
		Pins:          fd.Pins,
		Model:         fabricplace.DefaultModel(prof),
		StagesPerPass: 2 * prof.StagesPerPipelet,
	}
}

// fabricPlan is the desired state computed over the current topology
// health: per-chain routes, NF homes and pipelet slots, per-switch
// sub-chains and remote-forwarding entries. A plan is immutable once
// planFor returns it: the deployment may remember it, and reports and
// installed state share its maps.
type fabricPlan struct {
	routes   map[uint16]ChainRoute
	homes    map[string]int
	pipelets map[string]asic.PipeletID
	// perSwitch is each hosting switch's single-switch traversal cost
	// under its annealed pipelet placement.
	perSwitch map[int]route.Cost
	// subs is each hosting switch's sub-chains, the problem its anneal
	// solved with the plan's stage demands (the profile and the seed are
	// fixed per switch).
	subs map[int][]route.Chain
	// remote maps switch -> remote NF -> egress port toward its home,
	// following the placement graph's per-destination forwarding trees;
	// asic.PortUnset where no wire leads there.
	remote   map[int]map[string]asic.PortID
	switches []int
	active   []route.Chain
	dropped  map[uint16]string
	cost     fabricplace.Cost
	strategy string
	latency  time.Duration
	err      error
}

// rememberedPlan is a plan with what determined it: the fabric's health
// epoch and copies of the deployment's chain set, StageDemand and Pins.
// adopted marks the plan a committing round installed on every switch
// it uses: a round that finds it again has nothing to do.
type rememberedPlan struct {
	plan         *fabricPlan
	epoch        uint64
	chains       []route.Chain
	demand, pins map[string]int
	adopted      bool
}

// remember makes a committing round's plan of the deployment's chain set
// the remembered plan, unless it failed.
func (fd *FabricDeployment) remember(st *fabricState, p *fabricPlan) {
	if p.err == nil && p != fd.last.plan {
		fd.last = rememberedPlan{plan: p, epoch: st.epoch, chains: slices.Clone(fd.Chains),
			demand: maps.Clone(fd.StageDemand), pins: maps.Clone(fd.Pins)}
	}
}

// planFor computes the target plan of chains over one generation of the
// fabric's topology health. Chains that cannot be placed are dropped
// deterministically with a reason rather than failing the whole plan.
// The plan is a function of the generation's health epoch, the chain
// set and the deployment's StageDemand and Pins — compared by value,
// callers write those fields directly — so while none of them moved the
// remembered plan is the answer; planFor never replaces it.
func (fd *FabricDeployment) planFor(st *fabricState, chains []route.Chain) *fabricPlan {
	if l := &fd.last; l.plan != nil && l.epoch == st.epoch && route.EqualChains(l.chains, chains) &&
		maps.Equal(l.demand, fd.StageDemand) && maps.Equal(l.pins, fd.Pins) {
		return l.plan
	}
	p := &fabricPlan{
		routes:    make(map[uint16]ChainRoute),
		homes:     make(map[string]int),
		pipelets:  make(map[string]asic.PipeletID),
		perSwitch: make(map[int]route.Cost),
		subs:      make(map[int][]route.Chain),
		remote:    make(map[int]map[string]asic.PortID),
		dropped:   make(map[uint16]string),
	}
	if st.swHealth[0] == HealthDead {
		for _, c := range chains {
			p.dropped[c.PathID] = "entry switch 0 dead"
		}
		return p
	}
	fd.graphBuilds++
	g := st.placementGraph(fd.Fabric.Prof)
	res := fabricplace.Place(g, chains, fd.placeOptions())
	p.homes, p.dropped, p.cost, p.strategy = res.Homes, res.Unplaced, res.Total, res.Strategy
	inUse := make(map[int]bool)
	for _, c := range chains {
		pl, ok := res.Chains[c.PathID]
		if !ok {
			continue
		}
		p.active = append(p.active, c)
		p.routes[c.PathID] = ChainRoute{
			Path:      pl.Path,
			Ports:     pl.Ports,
			Segments:  pl.Segments,
			CrossHops: pl.Cost.CrossHops,
		}
		for _, s := range pl.Path {
			inUse[s] = true
		}
	}
	p.switches = SortedKeys(inUse)

	// Remote forwarding entries follow the per-destination trees: at
	// every in-use switch, every non-local NF is forwarded out the next
	// hop toward its home. Per-destination (not per-chain) forwarding
	// keeps the one remote port per NF per switch globally consistent
	// even when chains branch over different subsets. A home with no
	// next hop keeps asic.PortUnset, whose branching entry punts.
	for _, s := range p.switches {
		p.remote[s] = make(map[string]asic.PortID)
		for _, n := range SortedKeys(p.homes) {
			h := p.homes[n]
			if h == s {
				continue
			}
			p.remote[s][n] = asic.PortUnset
			if e, ok := g.NextHop(s, h); ok {
				p.remote[s][n] = e.Port
			}
		}
	}

	if p.err = fd.placePipelets(p); p.err != nil {
		return p
	}
	p.latency = fd.latency(p)
	return p
}

// latency is a plan's ReconcileReport.Latency. Weighted counts are
// fractions of a packet: it sums in float64 and converts once.
func (fd *FabricDeployment) latency(p *fabricPlan) time.Duration {
	prof := fd.Fabric.Prof
	var totalW, crossings float64
	for _, c := range p.active {
		w := c.EffectiveWeight()
		totalW += w
		crossings += w * float64(p.routes[c.PathID].CrossHops)
	}
	if totalW == 0 {
		return 0
	}
	ns := crossings / totalW * float64(prof.RecircOffChip)
	for _, s := range p.switches {
		recircs := p.perSwitch[s].WeightedRecircs / totalW
		ns += float64(prof.PortToPortLatency()) + recircs*float64(prof.PortToPortLatency()+prof.RecircOnChip)
	}
	return time.Duration(ns)
}

// placePipelets turns the plan's routes into per-switch sub-chains —
// one per NF-executing position of each active chain's route, numbered
// 1..n per switch — and anneals every hosting switch's set onto its
// pipelets with the single-switch placer, seeded per switch, filling in
// each NF's pipelet and each switch's traversal cost. A switch whose
// sub-chains and stage demands are those of the last plan takes that
// plan's result, so a heal re-anneals only the switches whose share of
// the chains changed and nothing outlives the plan it belongs to.
func (fd *FabricDeployment) placePipelets(p *fabricPlan) error {
	for _, c := range p.active {
		r := p.routes[c.PathID]
		for pos, seg := range r.Segments {
			if len(seg) == 0 {
				continue
			}
			s := r.Path[pos]
			p.subs[s] = append(p.subs[s], route.Chain{PathID: uint16(len(p.subs[s]) + 1), NFs: seg, Weight: c.Weight})
		}
	}
	for _, s := range p.switches {
		subs := p.subs[s]
		if len(subs) == 0 {
			continue
		}
		if prev := fd.last.plan; prev != nil && fd.annealedBefore(prev.subs[s], subs) {
			p.perSwitch[s] = prev.perSwitch[s]
			for _, sub := range subs {
				for _, n := range sub.NFs {
					p.pipelets[n] = prev.pipelets[n]
				}
			}
			continue
		}
		fd.anneals++
		prob := pipeline.Problem(pipeline.Inputs{Prof: fd.Fabric.Prof, Chains: subs, Enter: 0}, fd.StageDemand)
		res, err := place.Anneal(prob, place.AnnealOpts{Seed: int64(s + 1), Iterations: 4000})
		if err != nil {
			return fmt.Errorf("cluster: switch %d placement: %w", s, err)
		}
		p.perSwitch[s] = res.Cost
		for _, sub := range subs {
			for _, n := range sub.NFs {
				p.pipelets[n], _ = res.Placement.Of(n)
			}
		}
	}
	return nil
}

// annealedBefore reports whether the remembered plan annealed a
// switch's sub-chains already: the same NFs and weights in order, each
// NF at the stage demand it has now.
func (fd *FabricDeployment) annealedBefore(prev, subs []route.Chain) bool {
	if len(prev) != len(subs) {
		return false
	}
	for i, sub := range subs {
		if sub.Weight != prev[i].Weight || !slices.Equal(sub.NFs, prev[i].NFs) {
			return false
		}
		for _, n := range sub.NFs {
			if fd.last.demand[n] != fd.StageDemand[n] {
				return false
			}
		}
	}
	return true
}

// inputsAt declares the build of one switch's program, as a single
// switch's deploy does: the full active chain set, this switch's NFs
// placed locally on their annealed pipelets, everything else remote
// toward its home. The build is not strict: it is refused only when an
// artifact is missing (DV001, DV002, DV004), and its error names those
// findings.
func (fd *FabricDeployment) inputsAt(p *fabricPlan, s int) pipeline.Inputs {
	placement := route.NewPlacement()
	for _, n := range SortedKeys(p.homes) {
		if p.homes[n] == s {
			placement.Assign(n, p.pipelets[n])
		} else {
			placement.AssignRemote(n, p.remote[s][n])
		}
	}
	return pipeline.Inputs{Prof: fd.Fabric.Prof, Chains: p.active, NFs: fd.NFs, Enter: 0, Placement: placement}
}

// SwitchWrite is one switch's write-set in a round: the pipelets whose
// programs its commit reloads and its branching-table entry ops.
type SwitchWrite struct {
	Switch   int
	Programs []asic.PipeletID
	Delta    []route.EntryOp
}

// ReconcileReport is the structured outcome of one reconcile round,
// or of a Plan: the round without the commit, whose Changed, Replaced
// and Writes say what a commit would change. Its JSON keys are the
// fabric_* keys of `dejavu apply -json`.
type ReconcileReport struct {
	// Converged reports that the installed state already matched the
	// desired plan — nothing was reprogrammed.
	Converged bool `json:"-"`
	// Switches lists every switch the desired plan uses (hosting or
	// transit), ascending.
	Switches []int `json:"fabric_path,omitempty"`
	// Changed lists the switches reprogrammed this round, ascending.
	Changed []int `json:"fabric_changed,omitempty"`
	// Routes is the desired (and, on success, installed) per-chain
	// route map.
	Routes map[uint16]ChainRoute `json:"fabric_routes,omitempty"`
	// Replaced lists chains whose installed route changed this round,
	// ascending.
	Replaced []uint16 `json:"fabric_replaced,omitempty"`
	// Blackholed maps chains that cannot carry traffic to the reason.
	Blackholed map[uint16]string `json:"fabric_blackholed,omitempty"`
	// Writes is each staged switch's write-set, ascending: what its
	// controller commits (an entry switch only cleared writes none).
	Writes []SwitchWrite `json:"-"`
	// Cost is the desired plan's spend under the placement cost model.
	Cost fabricplace.Cost `json:"-"`
	// Strategy reports which placer won the portfolio ("cost"/"lex").
	Strategy string `json:"-"`
	// Latency is the desired plan's weighted end-to-end latency
	// estimate for one packet (§7): a port-to-port traversal of every
	// switch in use, each switch's weighted on-chip recirculations, and
	// the weighted inter-switch hops at the off-chip DAC latency of
	// Fig. 8(b).
	Latency time.Duration `json:"-"`
	// Findings collects FB001-FB006 degradation findings.
	Findings *lint.Report `json:"-"`
}

// Reconciler is the fabric self-healing loop: each Reconcile computes
// the desired placement over the surviving topology and converges the
// switches whose programs changed through their retrying drivers and
// program transactions. It is level-triggered — it compares desired
// against installed state, so missed events cannot wedge it.
type Reconciler struct {
	Dep *FabricDeployment
}

// NewReconciler builds a reconciler over a fabric deployment.
func NewReconciler(dep *FabricDeployment) *Reconciler { return &Reconciler{Dep: dep} }

// Reconcile runs one round and commits it; the first call performs the
// initial deploy. Deterministic: the same fabric health and chain set
// always produce the same plan, programs and findings.
func (r *Reconciler) Reconcile() (*ReconcileReport, error) { return r.Dep.round(r.Dep.Chains, true) }

// record records a committed round, failed or not, into fd.Control,
// with the alive count of the generation the round planned from.
func (fd *FabricDeployment) record(st *fabricState, rep *ReconcileReport, err error) {
	fd.routes = fd.routes[:0]
	for id, cr := range fd.Routes {
		fd.routes = append(fd.routes, telemetry.Route{
			Chain: id, PathLen: len(cr.Path), CrossHops: cr.CrossHops, Replaced: slices.Contains(rep.Replaced, id),
		})
	}
	fd.Control.RecordRound(telemetry.Round{
		Alive: st.alive(), Switches: len(st.swHealth),
		Blackholed: len(fd.Blackholed), Commits: len(rep.Changed), Failed: err != nil, Routes: fd.routes,
	})
}

// stagedBuild is one switch's build, staged and not yet committed, its
// write-set and the build it replaces.
type stagedBuild struct {
	SwitchWrite
	prev, next pipeline.Installed
}

// round runs one reconcile round toward chains over one generation of
// fabric state: report element health, take the plan, and stage every in-use
// switch whose desired build differs from its installed one — a failure
// that touches only one chain's switches leaves the others' programs
// untouched. With commit, and only if every stage succeeded, it commits
// the staged builds in ascending switch order and adopts the plan, so a
// refused build touches no switch; a failed commit restores every switch
// the round already committed, so the fabric keeps running its installed
// builds. A model deployment (no NF implementations) plans without
// staging: a build needs the NFs. A committed round, failed or not, is
// recorded into fd.Control and remembers its plan; a plan does neither.
func (fd *FabricDeployment) round(chains []route.Chain, commit bool) (rep *ReconcileReport, err error) {
	st := fd.Fabric.state.Load()
	if commit {
		defer func() { fd.record(st, rep, err) }()
	}
	rep = &ReconcileReport{Findings: lint.NewReport()}
	fail := func(where string, err error) (*ReconcileReport, error) {
		rep.Findings.Add(lint.Finding{
			Rule: RuleFBConvergeFailed, Severity: lint.SevError,
			Where: where, Message: err.Error(),
		})
		return rep, fmt.Errorf("cluster: reconcile: %w", err)
	}

	for i, h := range st.swHealth {
		if h != HealthAlive {
			rep.Findings.Add(lint.Finding{
				Rule: RuleFBSwitchDown, Severity: lint.SevWarn,
				Where:   fmt.Sprintf("switch %d", i),
				Message: fmt.Sprintf("switch %d is %s", i, h),
				Fix:     "revive the switch or leave it to the reconciler's re-placement",
			})
		}
	}
	for _, w := range st.wires {
		if w.Health != HealthAlive {
			rep.Findings.Add(lint.Finding{
				Rule: RuleFBLinkDown, Severity: lint.SevWarn,
				Where:   fmt.Sprintf("wire %d:%d", w.FromSw, w.FromPort),
				Message: fmt.Sprintf("wire %d:%d -> %d:%d is %s", w.FromSw, w.FromPort, w.ToSw, w.ToPort, w.Health),
				Fix:     "restore the link or leave it to the reconciler's re-placement",
			})
		}
	}

	p := fd.planFor(st, chains)
	if commit {
		fd.remember(st, p)
	}
	if p.err != nil {
		return fail("plan", p.err)
	}
	rep.Switches, rep.Routes, rep.Blackholed = append([]int(nil), p.switches...), maps.Clone(p.routes), p.dropped
	rep.Cost, rep.Strategy, rep.Latency = p.cost, p.strategy, p.latency
	for _, id := range SortedKeys(p.dropped) {
		rep.Findings.Add(lint.Finding{
			Rule: RuleFBBlackhole, Severity: lint.SevError,
			Where:   fmt.Sprintf("chain %d", id),
			Message: fmt.Sprintf("chain %d blackholed: %s", id, p.dropped[id]),
			Fix:     "restore fabric capacity or retire the chain",
		})
	}
	for _, id := range SortedKeys(fd.Blackholed) {
		if _, still := p.dropped[id]; !still {
			rep.Findings.Add(lint.Finding{
				Rule: RuleFBRestored, Severity: lint.SevInfo,
				Where:   fmt.Sprintf("chain %d", id),
				Message: fmt.Sprintf("chain %d re-placed after fabric recovery", id),
			})
		}
	}
	if fd.last.plan == p && fd.last.adopted {
		rep.Converged = true
		return rep, nil
	}

	var builds []stagedBuild
	for _, s := range p.switches {
		if len(fd.NFs) == 0 {
			break // a model deployment has nothing to build
		}
		in := fd.inputsAt(p, s)
		if cur := fd.installed[s].Res; cur != nil && route.EqualChains(cur.Composer.Chains, in.Chains) &&
			cur.Composer.Placement.Equal(in.Placement) {
			continue // per-chain convergence: an unchanged switch stays put
		}
		next, delta, err := fd.installed[s].Stage(in)
		if err != nil {
			return fail(fmt.Sprintf("switch %d", s), fmt.Errorf("cluster: switch %d build: %w", s, err))
		}
		builds = append(builds, stagedBuild{SwitchWrite{s, next.Res.ChangedFuncs, delta}, fd.installed[s], next})
	}
	for i := 0; commit && i < len(builds); i++ {
		b := builds[i]
		if err := fd.installed[b.Switch].Commit(fd.Fabric.Switches[b.Switch], fd.Controllers[b.Switch], fd.Drivers[b.Switch].Apply, b.next, b.Delta); err != nil {
			err = fmt.Errorf("cluster: switch %d %w", b.Switch, err)
			// All or nothing: the switches this round already committed
			// go back to their prior builds, last first.
			for j := i - 1; j >= 0; j-- {
				c := builds[j]
				fd.installed[c.Switch] = c.prev
				if rerr := c.prev.Restore(fd.Fabric.Switches[c.Switch]); rerr != nil {
					err = fmt.Errorf("%w; rolling back switch %d failed: %v", err, c.Switch, rerr)
				}
			}
			return fail(fmt.Sprintf("switch %d", b.Switch), err)
		}
	}
	for _, b := range builds {
		rep.Changed, rep.Writes = append(rep.Changed, b.Switch), append(rep.Writes, b.SwitchWrite)
	}
	// A plan that uses no switch blackholes every chain, yet the build an
	// alive entry still runs would carry them on: a commit clears it, and
	// its cache, so the next build of the entry installs every program.
	if len(p.switches) == 0 && st.swHealth[0] == HealthAlive && fd.installed[0].Res != nil {
		rep.Changed = append(rep.Changed, 0)
		if commit {
			fd.installed[0] = pipeline.Installed{Cache: pipeline.NewCache()}
			if err := fd.installed[0].Restore(fd.Fabric.Switches[0]); err != nil {
				return fail("switch 0", err)
			}
		}
	}
	for _, c := range p.active {
		if old, ok := fd.Routes[c.PathID]; !ok || !old.equal(p.routes[c.PathID]) {
			rep.Replaced = append(rep.Replaced, c.PathID)
		}
	}
	sort.Slice(rep.Replaced, func(i, j int) bool { return rep.Replaced[i] < rep.Replaced[j] })
	rep.Converged = len(rep.Changed) == 0 && len(rep.Replaced) == 0 && maps.Equal(p.dropped, fd.Blackholed)
	if len(rep.Changed) > 0 {
		rep.Findings.Add(lint.Finding{
			Rule: RuleFBReplaced, Severity: lint.SevInfo,
			Where: fmt.Sprintf("switches %v", p.switches),
			Message: fmt.Sprintf("re-placed %d chain(s) over switches %v (%d reprogrammed)",
				len(p.active), p.switches, len(rep.Changed)),
		})
	}
	if commit {
		fd.Routes, fd.Homes, fd.Blackholed = p.routes, p.homes, p.dropped
		fd.last.adopted = true
	}
	return rep, nil
}

// SortedKeys returns a map's keys in ascending order, for deterministic
// iteration.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
