package main

import (
	"fmt"
	"math/rand"

	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/scenario"
)

// puntSessions is the LB session-table capacity and the number of new
// flows one epoch sends: every epoch fills a fresh table exactly.
const puntSessions = 1 << 18

// puntRun is the state of one newflow-punt measurement phase.
type puntRun struct {
	res    *runResult
	base   packet.Parsed      // a 64 B full-path packet; flows differ in source only
	tuples []packet.FiveTuple // the epoch's new flows
	first  expectation        // model figures of the pass that ends in the punt
	again  expectation        // model figures of the reinjected pass
	tr     *tracer
	lat    *samples
	setups []float64 // seconds per fresh deployment
	env    *chainEnv // the current epoch's deployment

	flows, punts         int64
	recircs, modelNs     int64
	pollNs               int64
	sessions, reinjected int64
	epochRates           []float64 // flows per busy second of each whole epoch
	heapMB               float64   // live heap on the first full session table
	scratch              [burstSize]packet.Parsed
	ptrs                 [burstSize]*packet.Parsed
	bursts               int64
}

// setup deploys a fresh §5 chain whose LB has room for one epoch.
func (p *puntRun) setup() error {
	t0 := host.start()
	env, err := setupChain(nil, puntSessions, nil)
	if err != nil {
		return err
	}
	p.setups = append(p.setups, float64(host.since(t0))/1e9)
	p.env = env
	return nil
}

// burst sends the next burstSize new flows: every first packet misses
// the LB session table and is punted, the controller installs the
// session and reinjects. Only inject and poll are timed.
func (p *puntRun) burst(at int) (busy int64) {
	var t *tracer
	if sampled(p.bursts) {
		t = p.tr
	}
	for i := range p.scratch {
		tu := &p.tuples[at+i]
		p.scratch[i].CopyFrom(&p.base)
		p.scratch[i].IPv4.Src = tu.Src
		p.scratch[i].TCP.SrcPort = tu.SrcPort
	}
	d := p.env.dep

	root := t.begin("burst", -1, p.bursts)
	t0 := now()
	sp := t.begin("asic.InjectQuietBatch", root, p.bursts)
	br := d.Switch.InjectQuietBatch(scenario.PortClient, p.ptrs[:])
	t.finish(sp)
	t1 := now()
	sp = t.begin("ctl.Poll", root, p.bursts)
	traces, err := d.Controller.Poll()
	t.finish(sp)
	t2 := now()
	busy = host.scale(t2 - t0)
	p.lat.add(t2, busy)
	p.pollNs += host.scale(t2 - t1)

	sp = t.begin("bench.verify", root, p.bursts)
	p.flows += burstSize
	p.punts += int64(br.ToCPU)
	p.recircs += int64(br.Recirculations)
	p.modelNs += int64(br.Latency)
	if err != nil || br.Err != nil || br.ToCPU != burstSize || len(traces) != burstSize {
		p.res.fail(burstSize, "burst %d: %d of %d punted, %d reinjected: %v %v", p.bursts, br.ToCPU, burstSize, len(traces), br.Err, err)
	}
	for _, tr := range traces {
		p.recircs += int64(tr.Recirculations)
		p.modelNs += int64(tr.Latency)
		if tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortBackends ||
			tr.Recirculations != p.again.recircs || int64(tr.Latency) != p.again.latencyNs ||
			!checkParsed(kindFull, &p.base, tr.Out[0].Pkt) {
			p.res.fail(1, "burst %d: reinjected packet went wrong: %+v", p.bursts, tr)
		}
	}
	t.finish(sp)
	t.finish(root)
	p.bursts++
	host.tick(t2)
	return busy
}

// epochs runs whole epochs on fresh deployments until the time is up.
func (p *puntRun) epochs(seconds float64) error {
	deadline := now() + int64(seconds*1e9)
	for now() < deadline {
		if err := p.setup(); err != nil {
			return err
		}
		var busy, flows int64
		for at := 0; at+burstSize <= len(p.tuples) && now() < deadline; at += burstSize {
			busy += p.burst(at)
			flows += burstSize
		}
		p.checkEpoch(flows)
		if int(flows) == len(p.tuples) {
			p.epochRates = append(p.epochRates, float64(flows)/(float64(busy)/1e9))
			if p.heapMB == 0 {
				// Between epochs, so the collection is not in any timed
				// interval; the table is exactly full, so the figure
				// does not depend on where the clock stops the run.
				p.heapMB = heapMB(p)
			}
		} else if len(p.epochRates) == 0 && busy > 0 {
			// A smoke run too short for one whole epoch: rate what ran.
			p.epochRates = append(p.epochRates, float64(flows)/(float64(busy)/1e9))
		}
	}
	return nil
}

// checkEpoch reconciles an epoch's counters: one session and one
// reinjection per flow, and every flow out through the backend port.
func (p *puntRun) checkEpoch(flows int64) {
	d := p.env.dep
	st := d.Controller.Stats()
	p.sessions += int64(st.SessionsInstalled)
	p.reinjected += int64(st.Reinjected)
	tx := int64(d.Switch.Stats(scenario.PortBackends).TxPackets.Load())
	if int64(st.SessionsInstalled) != flows || int64(st.Reinjected) != flows || tx != flows || int64(p.env.scn.LB.Sessions()) != flows {
		p.res.fail(1, "epoch of %d flows: %d sessions installed, %d reinjected, %d in the table, %d packets out of port %d",
			flows, st.SessionsInstalled, st.Reinjected, p.env.scn.LB.Sessions(), tx, scenario.PortBackends)
	}
}

// learn sends one new flow through the traced path on a throwaway
// deployment and records what the model charges each of its two passes.
func (p *puntRun) learn() error {
	env, err := setupChain(nil, puntSessions, nil)
	if err != nil {
		return err
	}
	var pkt packet.Parsed
	pkt.CopyFrom(&p.base)
	tr1, err := env.dep.Switch.Inject(scenario.PortClient, &pkt)
	if err != nil || len(tr1.CPU) != 1 || len(tr1.Out) != 0 {
		return fmt.Errorf("first packet of a new flow was not punted: %+v %v", tr1, err)
	}
	traces, err := env.dep.Controller.Poll()
	if err != nil || len(traces) != 1 {
		return fmt.Errorf("punted packet was not reinjected: %d traces, %v", len(traces), err)
	}
	p.first = expectation{tr1.Recirculations, int64(tr1.Latency)}
	p.again = expectation{traces[0].Recirculations, int64(traces[0].Latency)}
	if want := env.dep.Chains[0].Recirculations; p.again.recircs != want {
		return fmt.Errorf("reinjected packet recirculated %d times, route.Plan says %d", p.again.recircs, want)
	}
	return nil
}

// settle reports the phase's figures and holds the model sums to what
// learn observed.
func (p *puntRun) settle() {
	res := p.res
	res.Attempted += p.flows
	p50, p99, n := percentiles(burstSize, p.lat)
	res.set("mpps", median(p.epochRates)/1e6, len(p.epochRates))
	res.set("lat_us_p50", p50/1e3, n)
	res.set("lat_us_p99", p99/1e3, n)
	if p.flows == 0 {
		return
	}
	res.set("model.recircs_per_pkt", float64(p.recircs)/float64(p.flows), int(p.flows))
	res.set("model.latency_ns", float64(p.modelNs)/float64(p.flows), int(p.flows))
	if p.recircs != p.flows*int64(p.first.recircs+p.again.recircs) || p.modelNs != p.flows*(p.first.latencyNs+p.again.latencyNs) {
		res.fail(1, "model mismatch: %d recirculations and %d ns simulated over %d flows, traced flow says %d and %d each",
			p.recircs, p.modelNs, p.flows, p.first.recircs+p.again.recircs, p.first.latencyNs+p.again.latencyNs)
	}
}

// runNewflowPunt is the slow-path workload: all traffic leaves the
// fast path. Epochs of puntSessions new flows each run on a fresh
// deployment, so the session table always grows from empty to full and
// every epoch is also a set-up sample.
func runNewflowPunt(rc *runCtx) error {
	res := rc.res
	epoch := puntSessions
	if rc.smoke() {
		epoch = 1 << 12 // keeps at least one whole epoch in the run
	}
	flows, err := makeFlows(kindFull, 1, rc.seed, func(*rand.Rand) int { return 64 })
	if err != nil {
		return err
	}
	gen := tupleGen(kindFull, rc.seed)
	tuples := make([]packet.FiveTuple, 0, epoch)
	seen := make(map[uint32]bool, epoch)
	for len(tuples) < epoch {
		t := gen.NextFlow().Tuple
		if h := t.Hash(); !seen[h] {
			seen[h] = true
			tuples = append(tuples, t)
		}
	}
	seen = nil

	var p *puntRun
	if err := rc.measure(func(seconds float64, traced bool) ([]*tracer, error) {
		p = &puntRun{res: res, base: flows[0].tmpl, tuples: tuples,
			lat: newSamples(int(seconds*50_000)+1024, now(), seconds)}
		if traced {
			p.tr = newTracer()
		}
		for i := range p.scratch {
			p.ptrs[i] = &p.scratch[i]
		}
		if err := p.learn(); err != nil {
			return nil, err
		}
		if err := p.epochs(seconds); err != nil {
			return nil, err
		}
		p.settle()
		return []*tracer{p.tr}, nil
	}); err != nil {
		return err
	}
	for len(p.setups) < rc.setups() {
		if err := p.setup(); err != nil {
			return err
		}
	}
	res.set("setup_s", median(p.setups), len(p.setups))

	if p.heapMB == 0 {
		p.heapMB = heapMB(p) // no epoch completed: a short smoke run
	}
	res.set("live_heap_mb", p.heapMB, 1)

	if rc.traced {
		puntLayers(rc, p)
	}
	return nil
}

// puntLayers is newflow-punt's traced account: the punt and controller
// counters, the write side of the session table, and the traced
// injection the controller's reinject uses.
func puntLayers(rc *runCtx, p *puntRun) {
	res := rc.res
	res.set("asic.cpu_punts", float64(p.punts), 1)
	res.set("ctl.sessions_installed", float64(p.sessions), 1)
	res.set("ctl.reinjected", float64(p.reinjected), 1)
	if p.punts > 0 {
		res.set("ctl.poll_ns_per_punt", float64(p.pollNs)/float64(p.punts), int(p.punts))
	}
	res.set("core.deploy_ms", median(p.setups)*1e3, len(p.setups))

	n := rc.scaled(1 << 15)
	if n > len(p.tuples) {
		n = len(p.tuples)
	}
	hashes := make([]uint32, n)
	tmpls := make([]packet.Parsed, n)
	for i := range hashes {
		hashes[i] = p.tuples[i].Hash()
		tmpls[i] = p.base
		tmpls[i].IPv4.Src, tmpls[i].TCP.SrcPort = p.tuples[i].Src, p.tuples[i].SrcPort
	}
	freshLB := func() *nf.LoadBalancer {
		lb := nf.NewLoadBalancer(puntSessions)
		lb.AddVIP(scenario.VIP, []packet.IP4{scenario.Backend1, scenario.Backend2})
		return lb
	}
	res.set("nf.lb_install_ns", medianNsPerOp(rc.reps(), n, func() {
		lb := freshLB()
		for _, h := range hashes {
			lb.InstallSession(h, scenario.Backend1)
		}
	}), rc.reps())
	// The LB on a miss: hash, look up, raise toCpu.
	res.set("nf.lb_ns", perPacketNs(rc, tmpls, n, freshLB().Execute), rc.reps())
	exactTableLayers(rc, 1)
	// The controller reinjects through the traced path; by now every
	// flow of the last epoch has its session.
	res.set("core.chain_traced_ns.full", perPacketNs(rc, tmpls, rc.scaled(1<<13), func(pkt *packet.Parsed) {
		p.env.dep.Inject(scenario.PortClient, pkt)
	}), rc.reps())
}
