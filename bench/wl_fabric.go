package main

import (
	"fmt"
	"math/rand"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/fabricplace"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

const (
	fabricSwitches = 4
	// fabricProbes is the number of verified probes after every
	// converged health change.
	fabricProbes = 96
	// fabricStages inflates every NF to 8 stages (+2 framework = 10
	// placement units), so the 5-NF chain set needs two 48-stage
	// switches and the placer has real segmentation work to do.
	fabricStages = 8
)

// fabricEnv is one chain set live on a wired fabric.
type fabricEnv struct {
	scn *scenario.Scenario
	fab *cluster.Fabric
	dep *cluster.FabricDeployment
	rec *cluster.Reconciler
}

// wireFabric builds n switches with a linear spine on port 10 and skip
// wires on port 11, so any single switch death leaves a path from the
// entry switch.
func wireFabric(prof asic.Profile, n int) (*cluster.Fabric, error) {
	f, err := cluster.NewFabric(prof, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n-1; i++ {
		if err := f.Connect(i, 10, i+1, 10); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n-2; i++ {
		if err := f.Connect(i, 11, i+2, 11); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func stageDemand() map[string]int {
	d := map[string]int{}
	for _, n := range chainNFs[kindFull] {
		d[n] = fabricStages
	}
	return d
}

// setupFabric wires the fabric, deploys the §5 chain set over it with
// the first reconcile and installs the probe flows' LB sessions.
func setupFabric(probes []flow) (*fabricEnv, error) {
	s, err := scenario.New()
	if err != nil {
		return nil, err
	}
	f, err := wireFabric(s.Prof, fabricSwitches)
	if err != nil {
		return nil, err
	}
	fd, err := cluster.NewFabricDeployment(f, s.Chains, s.NFs, stageDemand())
	if err != nil {
		return nil, err
	}
	env := &fabricEnv{scn: s, fab: f, dep: fd, rec: cluster.NewReconciler(fd)}
	rep, err := env.rec.Reconcile()
	if err != nil {
		return nil, err
	}
	if len(rep.Blackholed) > 0 {
		return nil, fmt.Errorf("initial placement blackholed %v", rep.Blackholed)
	}
	for i := range probes {
		if probes[i].kind != kindFull {
			continue
		}
		backend, err := s.LB.SelectBackend(scenario.VIP, probes[i].hash)
		if err == nil {
			err = s.LB.InstallSession(probes[i].hash, backend)
		}
		if err != nil {
			return nil, err
		}
	}
	return env, nil
}

// fabricRun is the state of one fabric-heal measurement phase.
type fabricRun struct {
	res    *runResult
	env    *fabricEnv
	probes []flow
	tr     *tracer

	heal, noop    *samples
	cycleRates    []float64 // probes per second of probe time, per cycle
	cycles        int64
	scratch       [fabricProbes]packet.Parsed
	traces        [fabricProbes]*cluster.FabricTrace
	probeNs       int64
	probesSent    int64
	hops, recircs int64
	modelNs       int64
	changed       int
	replaced      int
	// roundModel remembers the model sums of the first whole round of
	// victims; every later round must repeat them exactly.
	roundModel [3]int64
}

// reconcile runs one round and applies the failure rule: an error, or
// a chain left blackholed although three live switches can hold it.
func (r *fabricRun) reconcile(t *tracer, root int32, what string, wantConverged bool) int64 {
	sp := t.begin("cluster.Reconcile ("+what+")", root, r.cycles)
	t0 := host.start()
	rep, err := r.env.rec.Reconcile()
	t.finish(sp)
	d := host.since(t0)
	r.res.Attempted++
	switch {
	case err != nil:
		r.res.fail(1, "cycle %d: %s reconcile: %v", r.cycles, what, err)
	case len(rep.Blackholed) > 0:
		r.res.fail(1, "cycle %d: %s reconcile left placeable chains blackholed: %v", r.cycles, what, rep.Blackholed)
	case wantConverged && !rep.Converged:
		r.res.fail(1, "cycle %d: %s reconcile reprogrammed switches %v on an unchanged fabric", r.cycles, what, rep.Changed)
	}
	if rep != nil {
		r.changed += len(rep.Changed)
		r.replaced += len(rep.Replaced)
	}
	return d
}

// probe sends every probe flow through the fabric from the entry
// switch, then checks each against the installed route: switches
// crossed, exit switch and port, header rule.
func (r *fabricRun) probe(t *tracer, root int32) {
	sp := t.begin("cluster.Fabric.Inject", root, r.cycles)
	t0 := host.start()
	for i := range r.probes {
		r.scratch[i].CopyFrom(&r.probes[i].tmpl)
		ft, err := r.env.fab.Inject(0, scenario.PortClient, &r.scratch[i])
		if err != nil {
			ft = nil
		}
		r.traces[i] = ft
	}
	t.finish(sp)
	r.probeNs += host.since(t0)

	sp = t.begin("bench.verify", root, r.cycles)
	for i := range r.probes {
		f, ft := &r.probes[i], r.traces[i]
		r.res.Attempted++
		r.probesSent++
		rt := r.env.dep.Routes[f.kind.pathID()]
		if ft == nil || ft.Dropped || len(ft.Out) != 1 || len(ft.CPUSwitch) != 0 || len(rt.Path) == 0 {
			r.res.fail(1, "cycle %d probe %d (%s): not delivered: %+v", r.cycles, i, f.kind, ft)
			continue
		}
		if ft.Out[0].Port != f.exit || ft.OutSwitch[0] != rt.Path[len(rt.Path)-1] || ft.Hops != rt.CrossHops || len(ft.PerSwitch) != len(rt.Path) {
			r.res.fail(1, "cycle %d probe %d (%s): left switch %d port %d after %d hops, installed route %v says port %d after %d",
				r.cycles, i, f.kind, ft.OutSwitch[0], ft.Out[0].Port, ft.Hops, rt.Path, f.exit, rt.CrossHops)
		}
		if !checkParsed(f.kind, &f.tmpl, ft.Out[0].Pkt) {
			r.res.fail(1, "cycle %d probe %d (%s): wrong headers on exit: %s", r.cycles, i, f.kind, ft.Out[0].Pkt)
		}
		r.hops += int64(ft.Hops)
		r.modelNs += int64(ft.Latency)
		for _, tr := range ft.PerSwitch {
			r.recircs += int64(tr.Recirculations)
		}
	}
	t.finish(sp)
}

// cycle kills one switch, heals, proves the healed state stable, probes,
// revives the switch, converges again and probes again.
func (r *fabricRun) cycle(victim int) {
	t := r.tr
	root := t.begin("heal-cycle", -1, r.cycles)
	probeBefore, sentBefore := r.probeNs, r.probesSent

	sp := t.begin("cluster.KillSwitch", root, r.cycles)
	err := r.env.fab.KillSwitch(victim)
	t.finish(sp)
	if err != nil {
		r.res.fail(1, "cycle %d: kill switch %d: %v", r.cycles, victim, err)
	}
	d := r.reconcile(t, root, "heal", false)
	r.heal.add(now(), d)
	d = r.reconcile(t, root, "no-op", true)
	r.noop.add(now(), d)
	r.probe(t, root)

	sp = t.begin("cluster.ReviveSwitch", root, r.cycles)
	err = r.env.fab.ReviveSwitch(victim)
	t.finish(sp)
	if err != nil {
		r.res.fail(1, "cycle %d: revive switch %d: %v", r.cycles, victim, err)
	}
	d = r.reconcile(t, root, "heal", false)
	r.heal.add(now(), d)
	r.probe(t, root)
	t.finish(root)

	if ns := r.probeNs - probeBefore; ns > 0 {
		r.cycleRates = append(r.cycleRates, float64(r.probesSent-sentBefore)/(float64(ns)/1e9))
	}
	r.cycles++
}

// rounds cycles over switches 1..3 in the seed's order (switch 0 is the
// entry; without it nothing can carry traffic) until the time is up,
// always finishing the round it started: the model figures are sums
// over whole rounds, which visit the same fabric states whatever the
// order, so they repeat exactly.
func (r *fabricRun) rounds(seed int64, seconds float64) {
	victims := []int{1, 2, 3}
	rand.New(rand.NewSource(seed)).Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	deadline := now() + int64(seconds*1e9)
	for round := 0; round == 0 || now() < deadline; round++ {
		h0, c0, m0 := r.hops, r.recircs, r.modelNs
		for _, v := range victims {
			r.cycle(v)
		}
		got := [3]int64{r.hops - h0, r.recircs - c0, r.modelNs - m0}
		if round == 0 {
			r.roundModel = got
		} else if got != r.roundModel {
			r.res.fail(1, "round %d: %v wire hops/recirculations/simulated ns, the first round had %v", round, got, r.roundModel)
		}
	}
}

func (r *fabricRun) settle() {
	res := r.res
	p50, p99, n := percentiles(1, r.heal)
	res.set("mpps", median(r.cycleRates)/1e6, len(r.cycleRates))
	res.set("lat_us_p50", p50/1e3, n)
	res.set("lat_us_p99", p99/1e3, n)
	if r.probesSent > 0 {
		res.set("model.recircs_per_pkt", float64(r.recircs)/float64(r.probesSent), int(r.probesSent))
		res.set("model.latency_ns", float64(r.modelNs)/float64(r.probesSent), int(r.probesSent))
	}
}

// runFabricHeal is the fabric workload: a 4-switch fabric carrying the
// §5 chain set loses and regains one switch at a time. The operation
// is a reconcile after a health change: lat_* is its latency, mpps the
// rate of verified probes through the healed fabric.
func runFabricHeal(rc *runCtx) error {
	res := rc.res
	probes, err := chainFlows(fabricProbes, rc.seed)
	if err != nil {
		return err
	}
	var env *fabricEnv
	if err := medianSetup(rc, func() (err error) {
		env, err = setupFabric(probes)
		return err
	}); err != nil {
		return err
	}
	var r *fabricRun
	if err := rc.measure(func(seconds float64, traced bool) ([]*tracer, error) {
		r = &fabricRun{res: res, env: env, probes: probes,
			heal: newSamples(int(seconds*2_000)+64, now(), seconds), noop: newSamples(int(seconds*1_000)+64, now(), seconds)}
		if traced {
			r.tr = newTracer()
		}
		r.rounds(rc.seed, seconds)
		r.settle()
		return []*tracer{r.tr}, nil
	}); err != nil {
		return err
	}
	res.set("live_heap_mb", heapMB(env, probes, r), 1)
	if rc.traced {
		fabricLayers(rc, r)
	}
	return nil
}

// fabricLayers is fabric-heal's traced account: the reconcile rounds
// split by kind, what they changed, the probe path, and the placement
// engine called directly on this fabric and on a larger one.
func fabricLayers(rc *runCtx, r *fabricRun) {
	res := rc.res
	heal, _, nh := percentiles(1, r.heal)
	noop, _, nn := percentiles(1, r.noop)
	res.set("cluster.reconcile_heal_ms", heal/1e6, nh)
	res.set("cluster.reconcile_noop_ms", noop/1e6, nn)
	res.set("cluster.programs_changed", float64(r.changed), int(r.cycles))
	res.set("cluster.chains_replaced", float64(r.replaced), int(r.cycles))
	if r.probesSent > 0 {
		res.set("cluster.fabric_inject_ns", float64(r.probeNs)/float64(r.probesSent), int(r.probesSent))
		res.set("cluster.cross_hops", float64(r.hops)/float64(r.probesSent), int(r.probesSent))
	}

	prof := r.env.scn.Prof
	opts := fabricplace.Options{
		Entry: 0, StageDemand: stageDemand(),
		Model: fabricplace.DefaultModel(prof), StagesPerPass: 2 * prof.StagesPerPipelet,
	}
	place := func(f *cluster.Fabric, chains []route.Chain) float64 {
		reps := rc.scaled(32)
		return medianNsPerOp(rc.reps(), reps, func() {
			for i := 0; i < reps; i++ {
				fabricplace.Place(f.PlacementGraph(), chains, opts)
			}
		}) / 1e6
	}
	res.set("fabricplace.place_ms", place(r.env.fab, r.env.scn.Chains), rc.reps())

	// 8 switches × 12 chains: the three §5 chains under four path IDs
	// each, on the same spine-and-skip wiring.
	big, err := wireFabric(prof, 8)
	if err != nil {
		res.fail(1, "layers: 8-switch fabric: %v", err)
		return
	}
	var chains []route.Chain
	for copyNo := 0; copyNo < 4; copyNo++ {
		for _, c := range r.env.scn.Chains {
			c.PathID += uint16(copyNo)
			c.Weight /= 4
			chains = append(chains, c)
		}
	}
	res.set("fabricplace.place_ms.8sw", place(big, chains), rc.reps())
}
