package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dejavu/internal/asic"
	"dejavu/internal/core"
	"dejavu/internal/mau"
	"dejavu/internal/nf"
	"dejavu/internal/nsh"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
	"dejavu/internal/traffic"
)

// Per-layer rows come from micro-loops over the same packets the
// workload sends, each the median of rc.reps() repeats. A loop that
// mutates its packet restores it from the template first and the cost
// of that restore, measured by the same loop without the call, is
// subtracted, so a row is the cost of the call alone.

// microScratch is where the micro-loops restore packets; package level
// so the compiler cannot drop the restoring stores as dead.
var (
	microScratch [burstSize]packet.Parsed
	microPtrs    [burstSize]*packet.Parsed
)

func init() {
	for i := range microScratch {
		microPtrs[i] = &microScratch[i]
	}
}

// templatesOf collects the parsed templates of the flows of one kind
// (all kinds when kind is numKinds).
func templatesOf(flows []flow, kind pathKind) []packet.Parsed {
	var out []packet.Parsed
	for i := range flows {
		if kind == numKinds || flows[i].kind == kind {
			out = append(out, flows[i].tmpl)
		}
	}
	return out
}

// perPacketNs is the median cost of body on one packet.
func perPacketNs(rc *runCtx, tmpls []packet.Parsed, ops int, body func(*packet.Parsed)) float64 {
	p := &microScratch[0]
	restore := medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			p.CopyFrom(&tmpls[i%len(tmpls)])
		}
	})
	with := medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			p.CopyFrom(&tmpls[i%len(tmpls)])
			body(p)
		}
	})
	return positive(with - restore)
}

// fillBurst restores microScratch to the b-th burst of the templates.
func fillBurst(tmpls []packet.Parsed, b int) {
	for i := range microScratch {
		microScratch[i].CopyFrom(&tmpls[(b*burstSize+i)%len(tmpls)])
	}
}

// perBurstPktNs is the median per-packet cost of body on bursts.
func perBurstPktNs(rc *runCtx, tmpls []packet.Parsed, bursts int, body func([]*packet.Parsed)) float64 {
	ops := bursts * burstSize
	restore := medianNsPerOp(rc.reps(), ops, func() {
		for b := 0; b < bursts; b++ {
			fillBurst(tmpls, b)
		}
	})
	with := medianNsPerOp(rc.reps(), ops, func() {
		for b := 0; b < bursts; b++ {
			fillBurst(tmpls, b)
			body(microPtrs[:])
		}
	})
	return positive(with - restore)
}

func positive(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// batchNs is the per-packet cost of InjectQuietBatch for the given
// packets on a switch.
func batchNs(rc *runCtx, sw *asic.Switch, port asic.PortID, tmpls []packet.Parsed) float64 {
	return perBurstPktNs(rc, tmpls, rc.scaled(1024), func(ps []*packet.Parsed) { sw.InjectQuietBatch(port, ps) })
}

// allocsPerPkt counts heap allocations per packet of InjectQuietBatch.
func allocsPerPkt(rc *runCtx, sw *asic.Switch, port asic.PortID, tmpls []packet.Parsed) float64 {
	bursts := rc.scaled(1024)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < bursts; b++ {
		fillBurst(tmpls, b)
		sw.InjectQuietBatch(port, microPtrs[:])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(bursts*burstSize)
}

// codecLayers fills the packet.* rows for the given wire sizes.
func codecLayers(rc *runCtx, flows []flow, sizes ...int) {
	res := rc.res
	ops := rc.scaled(1 << 15)
	res.set("packet.zero_ns", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			microScratch[i%burstSize] = packet.Parsed{}
		}
	}), rc.reps())
	for _, size := range sizes {
		var frames [][]byte
		var tmpls []packet.Parsed
		for i := range flows {
			if len(flows[i].frame) == size {
				frames = append(frames, flows[i].frame)
				tmpls = append(tmpls, flows[i].tmpl)
			}
		}
		if len(frames) == 0 {
			continue
		}
		suffix := fmt.Sprintf(".%d", size)
		res.set("packet.parse_ns"+suffix, medianNsPerOp(rc.reps(), ops, func() {
			for i := 0; i < ops; i++ {
				_ = microScratch[0].Parse(frames[i%len(frames)])
			}
		}), rc.reps())
		buf := make([]byte, 0, 2048)
		res.set("packet.serialize_ns"+suffix, medianNsPerOp(rc.reps(), ops, func() {
			for i := 0; i < ops; i++ {
				buf, _ = tmpls[i%len(tmpls)].Serialize(buf[:0])
			}
		}), rc.reps())
	}
}

// shellLayers fills the asic.* rows on the synthetic forwarder: the
// shell's own cost per packet in each injection mode, and what one
// more pass through a recirculation port adds.
func shellLayers(rc *runCtx, bare []flow) (batch, recircPass float64) {
	res := rc.res
	prof := asic.Wedge100B()
	tmpls := templatesOf(bare, kindBare)
	fwd := traffic.NewBenchSwitch(prof, traffic.ForwarderOpts{})
	ops := rc.scaled(1 << 15)
	res.set("asic.inject_quiet_ns", perPacketNs(rc, tmpls, ops, func(p *packet.Parsed) { fwd.InjectQuiet(0, p) }), rc.reps())
	res.set("asic.inject_traced_ns", perPacketNs(rc, tmpls, ops, func(p *packet.Parsed) { fwd.Inject(0, p) }), rc.reps())
	batch = batchNs(rc, fwd, 0, tmpls)
	res.set("asic.inject_batch_ns", batch, rc.reps())
	fwd1 := traffic.NewBenchSwitch(prof, traffic.ForwarderOpts{Recircs: 1})
	recircPass = positive(batchNs(rc, fwd1, 0, tmpls) - batch)
	res.set("asic.recirc_pass_ns", recircPass, rc.reps())
	res.set("asic.allocs_per_pkt.fwd", allocsPerPkt(rc, fwd, 0, tmpls), 1)
	return batch, recircPass
}

// bareLayers is bare-forward's traced account: the codec at 64 B, the
// shell, and two injectors on the forwarder.
func bareLayers(rc *runCtx, flows []flow) {
	codecLayers(rc, flows, 64)
	shellLayers(rc, flows)
	sw := traffic.NewBenchSwitch(asic.Wedge100B(), traffic.ForwarderOpts{})
	secs := rc.seconds / 4
	a := newInjector(sw, 0, flows[:len(flows)/2], true, secs)
	b := newInjector(sw, 1, flows[len(flows)/2:], true, secs)
	runInjectors(secs, a, b)
	rate, n := perSecond(a.win, b.win)
	rc.res.set("asic.fwd_mpps_2w", rate/1e6, n)
}

// chainNFs is the NF order of each path kind in the §5 scenario.
var chainNFs = [...][]string{
	kindFull:   {"classifier", "fw", "vgw", "lb", "router"},
	kindMedium: {"classifier", "vgw", "router"},
	kindBasic:  {"classifier", "router"},
}

// nfCosts times each NF's Execute on the kind's packets advanced to
// that NF: predecessors run untimed, with the service-index advance
// compose performs between NFs, so every NF sees the headers it sees
// inside the chain. It returns cost by NF name.
func nfCosts(rc *runCtx, nfs nf.List, flows []flow, kind pathKind) map[string]float64 {
	adv := templatesOf(flows, kind)
	for i := range adv {
		// What compose seeds on a fresh packet before the classifier.
		adv[i].SFC.Meta.InPort = uint16(scenario.PortClient)
		adv[i].SFC.Meta.OutPort = nsh.OutPortUnset
	}
	costs := map[string]float64{}
	ops := rc.scaled(1 << 14)
	for _, name := range chainNFs[kind] {
		f := nfs.ByName(name)
		costs[name] = perPacketNs(rc, adv, ops, f.Execute)
		for i := range adv {
			f.Execute(&adv[i])
			adv[i].SFC.Advance()
		}
	}
	return costs
}

// chainLayers is the chain workloads' traced account. One injector
// (chain-steady) gets the full ledger; chain-steady-2w adds only what
// two workers change, the contended table lookup.
func chainLayers(rc *runCtx, env *chainEnv, flows []flow, workers int) {
	res := rc.res
	exactTableLayers(rc, workers)
	if workers > 1 {
		return
	}
	matchTableLayers(rc)
	bare, err := bareFlows(bareFlowCount, rc.seed)
	if err != nil {
		res.fail(1, "layers: %v", err)
		return
	}
	codecLayers(rc, flows, 64, 1500)
	shell, recircPass := shellLayers(rc, bare)

	sw := env.dep.Switch
	var chainNs [numKinds]float64
	for k := kindFull; k <= kindBasic; k++ {
		chainNs[k] = batchNs(rc, sw, scenario.PortClient, templatesOf(flows, k))
		res.set("core.chain_ns."+k.String(), chainNs[k], rc.reps())
	}
	full := templatesOf(flows, kindFull)
	res.set("core.chain_traced_ns.full", perPacketNs(rc, full, rc.scaled(1<<13), func(p *packet.Parsed) {
		env.dep.Inject(scenario.PortClient, p)
	}), rc.reps())
	res.set("asic.allocs_per_pkt.chain", allocsPerPkt(rc, sw, scenario.PortClient, templatesOf(flows, numKinds)), 1)

	// compose.residual is what is left of a path's per-packet cost once
	// its NFs, the shell's per-packet cost and its recirculation pass
	// are taken out: the check_nextNF / check_sfcFlags / branching
	// tables and the NF dispatch.
	var nfSum [numKinds]float64
	costs := [numKinds]map[string]float64{}
	for k := kindFull; k <= kindBasic; k++ {
		costs[k] = nfCosts(rc, env.scn.NFs, flows, k)
		for _, c := range costs[k] {
			nfSum[k] += c
		}
		resid := positive(chainNs[k] - nfSum[k] - shell - recircPass)
		res.set("compose.residual_ns."+k.String(), resid, rc.reps())
		if k == kindFull && chainNs[k] > 0 {
			res.set("compose.residual_share.full", 100*resid/chainNs[k], rc.reps())
		}
	}
	res.set("nf.classifier_ns", costs[kindFull]["classifier"], rc.reps())
	res.set("nf.fw_ns", costs[kindFull]["fw"], rc.reps())
	res.set("nf.vgw_ns", costs[kindFull]["vgw"], rc.reps())
	res.set("nf.vgw_encap_ns", costs[kindMedium]["vgw"], rc.reps())
	res.set("nf.lb_ns", costs[kindFull]["lb"], rc.reps())
	res.set("nf.router_ns", costs[kindFull]["router"], rc.reps())

	// Telemetry and postcards: the same struct-level mix on deployments
	// that differ only in the knob.
	all := templatesOf(flows, numKinds)
	off := batchNs(rc, sw, scenario.PortClient, all)
	for _, knob := range []struct {
		metric string
		mod    func(*core.Config)
	}{
		{"telemetry.overhead_pct", func(c *core.Config) { c.Telemetry = true }},
		{"telemetry.postcards_overhead_pct", func(c *core.Config) { c.Postcards = true }},
	} {
		on, err := setupChain(flows, 0, knob.mod)
		if err != nil {
			res.fail(1, "layers: %s: %v", knob.metric, err)
			continue
		}
		if off > 0 {
			res.set(knob.metric, 100*(batchNs(rc, on.dep.Switch, scenario.PortClient, all)-off)/off, rc.reps())
		}
	}

	// route: the static plan of the full chain and one branching
	// decision, the function the branching table implements.
	chain := env.scn.Chains[0]
	ops := rc.scaled(1 << 14)
	res.set("route.plan_ns", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			route.Plan(chain, env.dep.Placement, 0)
		}
	}), rc.reps())
	br, err := route.NewBranching(env.scn.Chains, env.dep.Placement)
	if err != nil {
		res.fail(1, "layers: branching: %v", err)
		return
	}
	br.SetLoopbackChooser(asic.RecircPort)
	res.set("route.decide_ns", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			br.Decide(chain.PathID, uint8(1+i%len(chain.NFs)), i&1, asic.PortID(nsh.OutPortUnset))
		}
	}), rc.reps())
}

// exactTableLayers fills the mau.exact_* rows on a table shaped like
// chain-steady's LB session table: one entry per full-path flow, keyed
// by 4-byte hashes. With two workers it measures the lookup from two
// goroutines at once instead of the insert.
func exactTableLayers(rc *runCtx, workers int) {
	res := rc.res
	const entries = chainFlowCount / 2
	keys := make([][]byte, entries)
	exact := mau.NewExactTable(0)
	for i := range keys {
		h := uint32(i) * 2654435761
		keys[i] = []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
		exact.Insert(keys[i], mau.Entry{Action: "modify_dstIp", Params: []uint64{uint64(i)}})
	}
	ops := rc.scaled(1 << 16)
	lookups := func() {
		for i := 0; i < ops; i++ {
			exact.Lookup(keys[i%entries])
		}
	}
	res.set("mau.exact_lookup_ns", medianNsPerOp(rc.reps(), ops, lookups), rc.reps())
	if workers > 1 {
		// Per-lookup time seen by each of two concurrent readers: equal
		// to the row above when reads do not contend. The second reader
		// loops for as long as the timed one does, so the two overlap
		// for all of the timed interval and not just its tail.
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				lookups()
			}
		}()
		lookups() // the other reader is running by the time this returns
		res.set("mau.exact_lookup_ns_2w", medianNsPerOp(rc.reps(), ops, lookups), rc.reps())
		stop.Store(true)
		wg.Wait()
		return
	}
	res.set("mau.exact_insert_ns", medianNsPerOp(rc.reps(), entries, func() {
		t := mau.NewExactTable(0)
		for i := range keys {
			t.Insert(keys[i], mau.Entry{Action: "modify_dstIp", Params: []uint64{uint64(i)}})
		}
	}), rc.reps())
}

// matchTableLayers fills the other mau.* rows: the router's three
// prefixes and the firewall's two ternary rules over the 13-byte
// five-tuple key.
func matchTableLayers(rc *runCtx) {
	res := rc.res
	ops := rc.scaled(1 << 16)
	lpm := mau.NewLPM32()
	lpm.Insert(packet.IP4{10, 0, 0, 0}.Uint32(), 16, mau.Entry{Params: []uint64{0}})
	lpm.Insert(packet.IP4{172, 16, 0, 0}.Uint32(), 16, mau.Entry{Params: []uint64{1}})
	lpm.Insert(0, 0, mau.Entry{Params: []uint64{2}})
	addrs := [...]uint32{scenario.Backend1.Uint32(), scenario.RemoteVTEP.Uint32(), packet.IP4{93, 184, 216, 34}.Uint32()}
	res.set("mau.lpm_lookup_ns", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			lpm.Lookup(addrs[i%len(addrs)])
		}
	}), rc.reps())

	tern := mau.NewTernaryTable()
	value, mask := make([]byte, 13), make([]byte, 13)
	copy(value[4:8], scenario.VIP[:])
	copy(mask[4:8], []byte{255, 255, 255, 255})
	tern.Insert(value, mask, 10, mau.Entry{Action: "deny"})
	value[8], mask[8] = packet.ProtoTCP, 0xFF
	value[11], value[12], mask[11], mask[12] = 443>>8, 443&0xFF, 0xFF, 0xFF
	tern.Insert(value, mask, 20, mau.Entry{Action: "permit"})
	tkeys := [...][]byte{append([]byte(nil), value...), make([]byte, 13)}
	res.set("mau.ternary_lookup_ns", medianNsPerOp(rc.reps(), ops, func() {
		for i := 0; i < ops; i++ {
			tern.Lookup(tkeys[i&1])
		}
	}), rc.reps())
}
