package main

import (
	"bytes"
	_ "embed"
	"sync"
	"sync/atomic"

	"dejavu/internal/config"
	"dejavu/internal/core"
	"dejavu/internal/intent"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// intentJSON is the operator document apply-churn converges: the §5
// edge-cloud intent (chains 10/20/30, greedy placement, four loopback
// ports).
//
//go:embed testdata/intent.json
var intentJSON []byte

// churnChain is the chain the churn adds and removes: the full NF list
// under a fresh path ID, the paper's expansion case of a new policy
// over NFs that are already placed.
var churnChain = config.ChainSpec{
	PathID: 40, NFs: []string{"classifier", "fw", "vgw", "lb", "router"}, Weight: 0.05, ExitPipeline: 0,
}

// noopEvery makes every this-many-th apply a re-apply of the document
// already applied, which the applier must prove a no-op.
const noopEvery = 8

// churnDocs parses the base document and derives base+chain 40.
func churnDocs() (base, plus *intent.Document, err error) {
	if base, err = intent.Parse(bytes.NewReader(intentJSON)); err != nil {
		return nil, nil, err
	}
	plus = base.Clone()
	plus.Chains = append(plus.Chains, churnChain)
	return base, plus, plus.Validate()
}

// applyStats collects what one measurement phase's applies reported.
type applyStats struct {
	real, noop     *samples
	buildUs        []float64
	residualUs     []float64
	cacheHits      []float64
	deltaEntries   []float64
	stageUs        map[string][]float64
	programReloads int
}

// churn applies base+40 and base alternately, back to back, until stop
// reports true; every noopEvery-th apply re-applies the current
// document instead. An apply fails on an error, on a rollback, on a
// real delta that changed nothing, or on a no-op that was not proved.
func churn(res *runResult, a *intent.Applier, base, plus *intent.Document, t *tracer, stop func() bool, seconds float64) *applyStats {
	st := &applyStats{
		real: newSamples(int(seconds*20_000)+64, now(), seconds), noop: newSamples(int(seconds*4_000)+64, now(), seconds),
		stageUs: map[string][]float64{},
	}
	docs := [2]*intent.Document{plus, base}
	current := 1
	if a.Current().Hash() == plus.Hash() {
		current = 0 // an earlier phase stopped on base+40
	}
	for i := int64(1); !stop(); i++ {
		isNoop := i%noopEvery == 0
		next := current
		if !isNoop {
			next = 1 - current
		}
		root := t.begin("apply", -1, i)
		sp := t.begin("intent.Apply", root, i)
		t0 := host.start()
		rep, err := a.Apply(docs[next], intent.Options{})
		t.finish(sp)
		d := host.since(t0)

		v := t.begin("bench.verify", root, i)
		res.Attempted++
		switch {
		case err != nil || rep.RolledBack:
			res.fail(1, "apply %d: %v (rolled back: %v)", i, err, rep != nil && rep.RolledBack)
		case isNoop && !rep.NoOp:
			res.fail(1, "apply %d: re-apply not proved a no-op: %s", i, rep.Summary())
		case !isNoop && (rep.NoOp || rep.Redeployed || rep.DeltaEntries == 0):
			res.fail(1, "apply %d: one-chain delta did not hot-swap: %s", i, rep.Summary())
		}
		if err == nil && isNoop {
			st.noop.add(now(), d)
		} else if err == nil {
			st.real.add(now(), d)
			// The applier's own figures are wall-clock: bring them to
			// the speed d is at.
			build := host.scale(int64(rep.Build.Duration))
			st.buildUs = append(st.buildUs, float64(build)/1e3)
			st.residualUs = append(st.residualUs, float64(d-build)/1e3)
			st.cacheHits = append(st.cacheHits, float64(rep.Build.CacheHits))
			st.deltaEntries = append(st.deltaEntries, float64(rep.DeltaEntries))
			st.programReloads += rep.ProgramReloads
			for _, s := range rep.Build.Stages {
				st.stageUs[s.Name] = append(st.stageUs[s.Name], float64(host.scale(int64(s.Duration)))/1e3)
			}
			reportedSpans(t, sp, i, &rep.Build)
		}
		t.finish(v)
		t.finish(root)
		current = next
	}
	return st
}

// reportedSpans adds the build stages the applier reported as children
// of the intent.Apply span. Their durations are the program's own
// (Report.Build.Stages); their positions are not known from outside,
// so they are laid back to back from the start of the call — the
// ledger only uses durations.
func reportedSpans(t *tracer, parent int32, op int64, b *pipeline.BuildInfo) {
	if t == nil || parent < 0 {
		return
	}
	at := t.spans[parent].start
	for _, s := range b.Stages {
		if i := t.begin("pipeline."+s.Name+" (reported)", parent, op); i >= 0 {
			t.spans[i].start, t.spans[i].end = at, at+int64(s.Duration)
			at += int64(s.Duration)
		}
	}
}

// runApplyChurn is the control-plane workload: one goroutine applies
// one-chain deltas back to back while a second injects the chain-steady
// mix, struct level, into the live switch. Closed loop, 1 applier and
// 1 injector. The operation is an apply: lat_* is apply latency over
// real deltas, mpps what the live traffic still gets.
func runApplyChurn(rc *runCtx) error {
	res := rc.res
	base, plus, err := churnDocs()
	if err != nil {
		return err
	}
	flows, err := chainFlows(rc.chainFlowCount(), rc.seed)
	if err != nil {
		return err
	}
	var a *intent.Applier
	if err := medianSetup(rc, func() error {
		a = intent.NewApplier(nil)
		if _, err := a.Apply(base, intent.Options{}); err != nil {
			return err
		}
		return warmSessions(a.Deployment(), flows)
	}); err != nil {
		return err
	}
	dep := a.Deployment()
	exp := verifyChainFlows(res, dep, flows)

	var st *applyStats
	var in *injector
	if err := rc.measure(func(seconds float64, traced bool) ([]*tracer, error) {
		before := txSnapshot(dep.Switch)
		in = newInjector(dep.Switch, scenario.PortClient, flows, false, seconds)
		var at *tracer
		if traced {
			at, in.tr = newTracer(), newTracer()
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runInjectors(seconds, in)
			done.Store(true)
		}()
		st = churn(res, a, base, plus, at, done.Load, seconds)
		wg.Wait()
		settle(res, dep.Switch, before, exp, in)
		p50, p99, n := percentiles(1, st.real)
		res.set("lat_us_p50", p50/1e3, n)
		res.set("lat_us_p99", p99/1e3, n)
		return []*tracer{at, in.tr}, nil
	}); err != nil {
		return err
	}
	if a.Deployment() != dep {
		res.fail(1, "the churn replaced the deployment; every delta must hot-swap the live one")
	}
	res.set("live_heap_mb", heapMB(a, flows, in), 1)
	if rc.traced {
		applyLayers(rc, st, base, plus)
	}
	return nil
}

// applyLayers is apply-churn's traced account: what the applies
// reported about their rebuilds, and direct calls into the layers an
// apply crosses (parse, diff, placement, cold build, table-program
// diff, core hot swap).
func applyLayers(rc *runCtx, st *applyStats, base, plus *intent.Document) {
	res := rc.res
	n := len(st.buildUs)
	res.set("pipeline.build_us", median(st.buildUs), n)
	for _, stage := range []string{pipeline.StageParserMerge, pipeline.StagePlacement, pipeline.StageComposition,
		pipeline.StageAllocation, pipeline.StageRouting, pipeline.StageLint} {
		res.set("pipeline."+stage+"_us", median(st.stageUs[stage]), len(st.stageUs[stage]))
	}
	res.set("pipeline.cache_hits", median(st.cacheHits), n)
	res.set("intent.apply_residual_us", median(st.residualUs), n)
	res.set("intent.program_reloads", float64(st.programReloads), n)
	noop, _, nn := percentiles(1, st.noop)
	res.set("intent.noop_apply_ms", noop/1e6, nn)
	res.set("route.delta_entries", median(st.deltaEntries), n)

	ops := rc.scaled(256)
	res.set("intent.parse_us", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			intent.Parse(bytes.NewReader(intentJSON))
		}
	})/1e3, rc.reps())
	res.set("intent.diff_us", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			intent.Diff(base, plus)
		}
	})/1e3, rc.reps())

	cfg, err := plus.BuildConfig()
	if err != nil {
		res.fail(1, "layers: %v", err)
		return
	}
	in := pipeline.Inputs{Prof: cfg.Prof, Chains: cfg.Chains, NFs: cfg.NFs, Enter: cfg.Enter, Pin: cfg.Pin}
	for _, opt := range []string{"greedy", "exhaustive"} {
		in.Optimizer = opt
		res.set("place."+opt+"_ms", medianNsPerOp(rc.reps(), 1, func() {
			if _, _, err := pipeline.ResolvePlacement(in); err != nil {
				res.fail(1, "layers: %s placement: %v", opt, err)
			}
		})/1e6, rc.reps())
	}
	res.set("pipeline.cold_build_ms", medianNsPerOp(rc.reps(), 1, func() {
		if _, _, err := core.Compose(*cfg, false); err != nil {
			res.fail(1, "layers: cold build: %v", err)
		}
	})/1e6, rc.reps())

	var d *core.Deployment
	res.set("core.deploy_ms", medianNsPerOp(rc.reps(), 1, func() {
		bcfg, err := base.BuildConfig()
		if err == nil {
			d, err = core.Deploy(*bcfg)
		}
		if err != nil {
			res.fail(1, "layers: deploy: %v", err)
		}
	})/1e6, rc.reps())
	if d == nil {
		return
	}
	extra := route.Chain{PathID: churnChain.PathID, NFs: churnChain.NFs, Weight: churnChain.Weight}
	rounds := rc.scaled(64)
	add, remove := make([]float64, rounds), make([]float64, rounds)
	for i := range add {
		t0 := host.start()
		err := d.AddChain(extra)
		added := host.since(t0)
		t1 := host.start()
		if err == nil {
			err = d.RemoveChain(extra.PathID)
		}
		if err != nil {
			res.fail(1, "layers: chain churn: %v", err)
			return
		}
		add[i], remove[i] = float64(added)/1e6, float64(host.since(t1))/1e6
	}
	res.set("core.add_chain_ms", median(add), rounds)
	res.set("core.remove_chain_ms", median(remove), rounds)

	// The table-program diff the swap pushes through the driver: the
	// same two programs, diffed directly.
	progOf := func(chains []route.Chain) (route.TableProgram, error) {
		br, err := route.NewBranching(chains, d.Placement)
		if err != nil {
			return route.TableProgram{}, err
		}
		return br.Program(cfg.Prof.Pipelines), nil
	}
	from, err1 := progOf(d.Config.Chains)
	to, err2 := progOf(append(append([]route.Chain(nil), d.Config.Chains...), extra))
	if err1 != nil || err2 != nil {
		res.fail(1, "layers: table programs: %v %v", err1, err2)
		return
	}
	ops = rc.scaled(4096)
	res.set("route.diff_us", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			route.Diff(from, to)
		}
	})/1e3, rc.reps())
	if got, want := len(route.Diff(from, to)), int(median(st.deltaEntries)); got != want {
		res.fail(1, "layers: direct table-program diff has %d entries, applies reported %d", got, want)
	}
}
