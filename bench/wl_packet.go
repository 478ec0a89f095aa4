package main

import (
	"fmt"
	"runtime"
	"sync"

	"dejavu/internal/asic"
	"dejavu/internal/core"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
	"dejavu/internal/traffic"
)

const (
	// burstSize is the closed-loop unit: an injector sends its next
	// burst only after the previous one has left the switch.
	burstSize = 32
	// A traced run records spans for one burst in traceEvery, so tracing
	// adds nothing to the others. Sampled bursts come in runs of
	// traceRun consecutive ones: the tracer's code and span buffer are
	// cold for the first burst of a run and warm for the rest, which
	// keeps the cost of recording out of what is recorded.
	traceEvery = 64
	traceRun   = 8
)

// sampled reports whether a traced run records spans for burst n.
func sampled(n int64) bool { return n%(traceEvery*traceRun) < traceRun }

// expectation is what the model says about one path kind, learned from
// route.Plan and confirmed by traced injection before timing starts.
type expectation struct {
	recircs   int
	latencyNs int64
}

// injector drives one closed loop of bursts into a switch port. Wire
// mode is wire-to-wire (zero, Parse, InjectQuietBatch, Serialize);
// struct mode stamps parsed templates instead and skips the codec.
type injector struct {
	sw    *asic.Switch
	port  asic.PortID
	flows []flow
	wire  bool

	scratch [burstSize]packet.Parsed
	ptrs    [burstSize]*packet.Parsed
	out     []byte
	ends    [burstSize + 1]int

	clk *hostClock
	lat *samples
	win *windows
	tr  *tracer

	bursts  int64
	pkts    int64
	perKind [numKinds]int64
	perPort map[asic.PortID]int64
	recircs int64
	modelNs int64
	failed  int64
	problem string
}

func newInjector(sw *asic.Switch, port asic.PortID, flows []flow, wire bool, seconds float64) *injector {
	in := &injector{
		sw: sw, port: port, flows: flows, wire: wire,
		out:     make([]byte, 0, burstSize*2048),
		perPort: map[asic.PortID]int64{},
		clk:     newHostClock(),
		// Room for a burst every 4 µs for the whole run.
		lat: newSamples(int(seconds*250_000)+1024, now(), seconds),
	}
	for i := range in.scratch {
		in.ptrs[i] = &in.scratch[i]
	}
	return in
}

func (in *injector) failf(n int64, format string, args ...any) {
	in.failed += n
	if in.problem == "" {
		in.problem = fmt.Sprintf(format, args...)
	}
}

// burst sends the next burstSize packets and verifies what came out.
func (in *injector) burst() {
	var t *tracer
	if sampled(in.bursts) {
		t = in.tr
	}
	base := int(in.bursts*burstSize) % len(in.flows)
	at := func(i int) *flow { return &in.flows[(base+i)%len(in.flows)] }

	root := t.begin("burst", -1, in.bursts)
	t0 := now()

	sp := t.begin("packet.Parse", root, in.bursts)
	for i := range in.scratch {
		if !in.wire {
			in.scratch[i].CopyFrom(&at(i).tmpl)
		} else if err := loadFrame(&in.scratch[i], at(i).frame); err != nil {
			in.failf(1, "parse: %v", err)
		}
	}
	sp = t.next(sp, "asic.InjectQuietBatch")
	br := in.sw.InjectQuietBatch(in.port, in.ptrs[:])

	if in.wire {
		sp = t.next(sp, "packet.Serialize")
		in.out = in.out[:0]
		for i := range in.scratch {
			var err error
			if in.out, err = in.scratch[i].Serialize(in.out); err != nil {
				in.failf(1, "serialize: %v", err)
			}
			in.ends[i+1] = len(in.out)
		}
	}
	t.finish(sp)

	t1 := now()
	in.lat.add(t1, in.clk.scale(t1-t0))

	sp = t.begin("bench.verify", root, in.bursts)
	if br.Err != nil || br.Delivered != burstSize {
		in.failf(int64(burstSize-br.Delivered), "burst %d: delivered %d/%d dropped %d to-cpu %d errors %d: %v",
			in.bursts, br.Delivered, burstSize, br.Dropped, br.ToCPU, br.Errors, br.Err)
	}
	in.recircs += int64(br.Recirculations)
	in.modelNs += int64(br.Latency)
	for i := range in.scratch {
		f := at(i)
		in.perKind[f.kind]++
		in.perPort[f.exit]++
		ok := false
		if in.wire {
			ok = checkWire(f.kind, f.frame, in.out[in.ends[i]:in.ends[i+1]])
		} else {
			ok = checkParsed(f.kind, &f.tmpl, &in.scratch[i])
		}
		if !ok {
			in.failf(1, "burst %d packet %d (%s): wrong headers on exit", in.bursts, i, f.kind)
		}
	}
	t.finish(sp)
	t.finish(root)

	in.bursts++
	in.pkts += burstSize
}

// run sends bursts until its windows are over. A window's throughput
// counts all the loop's time, verification included, except the time
// the host clock's kernel takes.
func (in *injector) run() {
	for t := now(); t < in.win.end(); {
		in.burst()
		done := now()
		in.win.add(done, burstSize, in.clk.scale(done-t))
		t = in.clk.tick(done)
	}
}

// runInjectors measures the given injectors concurrently over one set
// of aligned windows and returns when all have finished.
func runInjectors(seconds float64, ins ...*injector) {
	start := now()
	for _, in := range ins {
		in.win = newWindows(start, seconds)
		in.lat.grid(start, seconds)
	}
	var wg sync.WaitGroup
	for _, in := range ins[1:] {
		wg.Add(1)
		go func(in *injector) {
			defer wg.Done()
			in.run()
		}(in)
	}
	ins[0].run()
	wg.Wait()
}

// txSnapshot reads TxPackets of every front-panel port that is not in
// loopback mode: the ports packets leave the switch through.
func txSnapshot(sw *asic.Switch) map[asic.PortID]uint64 {
	tx := map[asic.PortID]uint64{}
	for p := 0; p < sw.Profile().TotalPorts(); p++ {
		port := asic.PortID(p)
		if sw.LoopbackModeOf(port) == asic.LoopbackOff {
			tx[port] = sw.Stats(port).TxPackets.Load()
		}
	}
	return tx
}

// settle folds the injectors' tallies into the result: throughput and
// latency, the model figures against the per-kind expectations, and
// the per-port transmit counters against the per-path packet counts.
func settle(res *runResult, sw *asic.Switch, before map[asic.PortID]uint64, exp [numKinds]expectation, ins ...*injector) {
	var wins []*windows
	var lats []*samples
	var pkts, recircs, modelNs, wantRecircs, wantNs int64
	perPort := map[asic.PortID]int64{}
	for _, in := range ins {
		wins = append(wins, in.win)
		lats = append(lats, in.lat)
		pkts += in.pkts
		recircs += in.recircs
		modelNs += in.modelNs
		for k, n := range in.perKind {
			wantRecircs += n * int64(exp[k].recircs)
			wantNs += n * exp[k].latencyNs
		}
		for p, n := range in.perPort {
			perPort[p] += n
		}
		res.Attempted += in.pkts
		host.absorb(in.clk)
		if in.failed > 0 {
			res.fail(in.failed, "%s", in.problem)
		}
	}
	rate, nwin := perSecond(wins...)
	p50, p99, n := percentiles(burstSize, lats...)
	res.set("mpps", rate/1e6, nwin)
	res.set("lat_us_p50", p50/1e3, n)
	res.set("lat_us_p99", p99/1e3, n)
	if pkts > 0 {
		res.set("model.recircs_per_pkt", float64(recircs)/float64(pkts), int(pkts))
		res.set("model.latency_ns", float64(modelNs)/float64(pkts), int(pkts))
	}
	if recircs != wantRecircs || modelNs != wantNs {
		res.fail(1, "model mismatch: %d recirculations and %d ns simulated, plan says %d and %d", recircs, modelNs, wantRecircs, wantNs)
	}
	for port, was := range before {
		if got, want := int64(sw.Stats(port).TxPackets.Load()-was), perPort[port]; got != want {
			res.fail(1, "port %d transmitted %d packets, per-path counts say %d", port, got, want)
		}
	}
}

// heapMB is HeapAlloc after a forced collection, with keep still
// reachable so the deployment under test is part of the figure.
func heapMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / 1e6
}

// chainEnv is one §5 deployment with its LB sessions established.
type chainEnv struct {
	scn *scenario.Scenario
	dep *core.Deployment
}

// setupChain builds the scenario, deploys it and warms every full-path
// flow's LB session through the real slow path (miss, punt, session
// install, reinject). lbCapacity 0 keeps the scenario's session table;
// mod, when non-nil, edits the config before Deploy.
func setupChain(flows []flow, lbCapacity int, mod func(*core.Config)) (*chainEnv, error) {
	s, err := scenario.New()
	if err != nil {
		return nil, err
	}
	if lbCapacity > 0 {
		lb := nf.NewLoadBalancer(lbCapacity)
		if err := lb.AddVIP(scenario.VIP, []packet.IP4{scenario.Backend1, scenario.Backend2}); err != nil {
			return nil, err
		}
		for i, f := range s.NFs {
			if f == nf.NF(s.LB) {
				s.NFs[i] = lb
			}
		}
		s.LB = lb
	}
	cfg := core.Config{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Enter: 0, Placement: s.Placement}
	if mod != nil {
		mod(&cfg)
	}
	d, err := core.Deploy(cfg)
	if err != nil {
		return nil, err
	}
	env := &chainEnv{scn: s, dep: d}
	return env, warmSessions(d, flows)
}

// warmSessions injects every full-path flow once and services the
// punts, leaving one installed LB session per flow.
func warmSessions(d *core.Deployment, flows []flow) error {
	var scratch [burstSize]packet.Parsed
	var ptrs []*packet.Parsed
	want := 0
	flush := func() error {
		if len(ptrs) == 0 {
			return nil
		}
		br := d.Switch.InjectQuietBatch(scenario.PortClient, ptrs)
		if br.Err != nil || br.ToCPU != len(ptrs) {
			return fmt.Errorf("warm-up: %d of %d first packets punted: %v", br.ToCPU, len(ptrs), br.Err)
		}
		ptrs = ptrs[:0]
		_, err := d.Controller.Poll()
		return err
	}
	for i := range flows {
		if flows[i].kind != kindFull {
			continue
		}
		want++
		p := &scratch[len(ptrs)]
		p.CopyFrom(&flows[i].tmpl)
		ptrs = append(ptrs, p)
		if len(ptrs) == burstSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if got := d.Controller.Stats().SessionsInstalled; got != want {
		return fmt.Errorf("warm-up: %d sessions installed, want %d", got, want)
	}
	return nil
}

// verifyChainFlows pushes every flow through the traced path and
// compares what the switch did with what route.Plan says it must do:
// pipelet path, recirculations and exit port, plus the header rule on
// the emitted packet in both its struct and its wire form. It returns
// the per-kind expectations the timed run is then held to.
func verifyChainFlows(res *runResult, d *core.Deployment, flows []flow) [numKinds]expectation {
	var exp [numKinds]expectation
	plans := map[pathKind]route.Traversal{}
	for _, cr := range d.Chains {
		for k := kindFull; k <= kindBasic; k++ {
			if k.pathID() != cr.Chain.PathID {
				continue
			}
			tr, err := route.Plan(cr.Chain, d.Placement, d.Config.Enter)
			if err != nil {
				res.fail(1, "route.Plan chain %d: %v", cr.Chain.PathID, err)
				continue
			}
			plans[k] = tr
			exp[k].recircs = tr.Recirculations
		}
	}
	for i := range flows {
		f := &flows[i]
		res.Attempted++
		var p packet.Parsed
		p.CopyFrom(&f.tmpl)
		tr, err := d.Inject(scenario.PortClient, &p)
		if err != nil || tr.Dropped || len(tr.Out) != 1 || len(tr.CPU) != 0 {
			res.fail(1, "verify %s flow %d: err=%v trace=%+v", f.kind, i, err, tr)
			continue
		}
		plan := plans[f.kind]
		same := len(tr.Steps) == len(plan.Steps) && tr.Recirculations == plan.Recirculations
		for j := 0; same && j < len(plan.Steps); j++ {
			same = tr.Steps[j].Pipelet == plan.Steps[j]
		}
		if !same {
			res.fail(1, "verify %s flow %d: went %s (%d recircs), plan says %s (%d)", f.kind, i, tr.Path(), tr.Recirculations, plan.Path(), plan.Recirculations)
		}
		if tr.Out[0].Port != f.exit {
			res.fail(1, "verify %s flow %d: left on port %d, want %d", f.kind, i, tr.Out[0].Port, f.exit)
		}
		checkEmitted(res, f, i, tr.Out[0].Pkt)
		if l := int64(tr.Latency); exp[f.kind].latencyNs == 0 {
			exp[f.kind].latencyNs = l
		} else if exp[f.kind].latencyNs != l {
			res.fail(1, "verify %s flow %d: simulated latency %d ns, earlier flows %d", f.kind, i, l, exp[f.kind].latencyNs)
		}
	}
	return exp
}

// checkEmitted applies the header rule to an emitted packet as a
// struct and as serialized bytes; the two rules must agree.
func checkEmitted(res *runResult, f *flow, i int, out *packet.Parsed) {
	wire, err := out.Serialize(nil)
	if err != nil {
		res.fail(1, "verify %s flow %d: serialize: %v", f.kind, i, err)
		return
	}
	if !checkParsed(f.kind, &f.tmpl, out) || !checkWire(f.kind, f.frame, wire) {
		res.fail(1, "verify %s flow %d: wrong headers on exit: %s", f.kind, i, out)
	}
}

// verifyBareFlows is verifyChainFlows for the synthetic forwarder:
// one ingress and one egress pass, no recirculation, hash-chosen port.
func verifyBareFlows(res *runResult, sw *asic.Switch, flows []flow) [numKinds]expectation {
	var exp [numKinds]expectation
	for i := range flows {
		f := &flows[i]
		res.Attempted++
		var p packet.Parsed
		p.CopyFrom(&f.tmpl)
		tr, err := sw.Inject(0, &p)
		if err != nil || tr.Dropped || len(tr.Out) != 1 || tr.Recirculations != 0 || len(tr.Steps) != 2 {
			res.fail(1, "verify bare flow %d: err=%v trace=%+v", i, err, tr)
			continue
		}
		if tr.Out[0].Port != f.exit {
			res.fail(1, "verify bare flow %d: left on port %d, want %d", i, tr.Out[0].Port, f.exit)
		}
		checkEmitted(res, f, i, tr.Out[0].Pkt)
		exp[kindBare].latencyNs = int64(tr.Latency)
	}
	return exp
}

// medianSetup runs setup at least rc.setups() times, reports the median
// reference-speed time as setup_s, and leaves the last set-up for the
// run to use.
func medianSetup(rc *runCtx, setup func() error) error {
	var times []float64
	var total int64
	// A set-up that takes under a millisecond is repeated until the
	// samples cover a tenth of a second, or its median would be noise.
	for len(times) < rc.setups() || (total < 100e6 && len(times) < 1000 && !rc.smoke()) {
		t0 := host.start()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := host.since(t0)
		total += d
		times = append(times, float64(d)/1e9)
	}
	rc.res.set("setup_s", median(times), len(times))
	return nil
}

// chainFlowCount is the number of established flows in chain-steady.
const chainFlowCount = 4096

func (rc *runCtx) chainFlowCount() int {
	if rc.smoke() {
		return chainFlowCount / 16
	}
	return chainFlowCount
}

// runChainSteady is the paper's headline path: the §5 chain, every
// packet recirculating once, wire to wire. workers is 1 (chain-steady)
// or 2 (chain-steady-2w, two injectors on disjoint flow halves).
func runChainSteady(rc *runCtx, workers int) error {
	res := rc.res
	flows, err := chainFlows(rc.chainFlowCount(), rc.seed)
	if err != nil {
		return err
	}
	var env *chainEnv
	if err := medianSetup(rc, func() (err error) {
		env, err = setupChain(flows, 0, nil)
		return err
	}); err != nil {
		return err
	}
	sw := env.dep.Switch
	exp := verifyChainFlows(res, env.dep, flows)
	for k := kindFull; k <= kindBasic; k++ {
		if exp[k] != (expectation{recircs: 1, latencyNs: 1375}) {
			res.fail(1, "%s path: plan gives %d recirculations and %d ns, the §5 placement must give 1 and 1375", k, exp[k].recircs, exp[k].latencyNs)
		}
	}

	mk := func() []*injector {
		ins := make([]*injector, workers)
		for w := range ins {
			part := flows[w*len(flows)/workers : (w+1)*len(flows)/workers]
			ins[w] = newInjector(sw, scenario.PortClient, part, true, rc.seconds)
		}
		return ins
	}
	ins, err := measurePackets(rc, sw, exp, mk)
	if err != nil {
		return err
	}
	res.set("live_heap_mb", heapMB(env, flows, ins), 1)
	if rc.traced {
		chainLayers(rc, env, flows, workers)
	}
	return nil
}

// bareFlowCount is the forwarder workload's flow count.
const bareFlowCount = 64

// runBareForward is the bypass control: the synthetic forwarder runs
// no NF, MAU or compose code, so the asic shell and the packet codec do
// all the work, at the smallest frame size.
func runBareForward(rc *runCtx) error {
	res := rc.res
	flows, err := bareFlows(bareFlowCount, rc.seed)
	if err != nil {
		return err
	}
	prof := asic.Wedge100B()
	tmpls := templatesOf(flows, kindBare)
	var sw *asic.Switch
	if err := medianSetup(rc, func() error {
		// Build the switch and warm it with as many packets as
		// chain-steady has flows, which fills the shell's context and
		// trace pools; without the warm-up this set-up would be a
		// dozen microseconds of allocation and its median timer noise.
		sw = traffic.NewBenchSwitch(prof, traffic.ForwarderOpts{})
		for b := 0; b < chainFlowCount/burstSize; b++ {
			fillBurst(tmpls, b)
			if br := sw.InjectQuietBatch(0, microPtrs[:]); br.Err != nil || br.Delivered != burstSize {
				return fmt.Errorf("warm-up: delivered %d of %d: %v", br.Delivered, burstSize, br.Err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	exp := verifyBareFlows(res, sw, flows)
	if exp[kindBare] != (expectation{recircs: 0, latencyNs: 650}) {
		res.fail(1, "forwarder: %d recirculations and %d ns simulated, want 0 and 650", exp[kindBare].recircs, exp[kindBare].latencyNs)
	}
	mk := func() []*injector {
		return []*injector{newInjector(sw, 0, flows, true, rc.seconds)}
	}
	ins, err := measurePackets(rc, sw, exp, mk)
	if err != nil {
		return err
	}
	res.set("live_heap_mb", heapMB(sw, flows, ins), 1)
	if rc.traced {
		bareLayers(rc, flows)
	}
	return nil
}

// measurePackets runs the burst loops of the injectors mk builds, one
// fresh set per phase, and returns the last set.
func measurePackets(rc *runCtx, sw *asic.Switch, exp [numKinds]expectation, mk func() []*injector) (ins []*injector, err error) {
	err = rc.measure(func(seconds float64, traced bool) ([]*tracer, error) {
		before := txSnapshot(sw)
		ins = mk()
		var tracers []*tracer
		for _, in := range ins {
			if traced {
				in.tr = newTracer()
				tracers = append(tracers, in.tr)
			}
		}
		runInjectors(seconds, ins...)
		settle(rc.res, sw, before, exp, ins...)
		return tracers, nil
	})
	return ins, err
}
