package core

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
	"dejavu/internal/telemetry"
)

// The §5 chain through a real deployment, with the real NFs: what the
// hot-path contract promises about it.

// chainPaths is one template per SFC path of the scenario.
func chainPaths() map[uint16]*packet.Parsed {
	return map[uint16]*packet.Parsed{
		scenario.PathFull:   scenario.ClientTCP(443),
		scenario.PathMedium: scenario.TenantBound(),
		scenario.PathBasic:  scenario.InternetBound(),
	}
}

// deployChain deploys the scenario and installs the full-path
// template's LB session, so every template is on the fast path.
func deployChain(t testing.TB) *Deployment {
	t.Helper()
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := d.Inject(scenario.PortClient, scenario.ClientTCP(443)); err != nil || len(tr.Out) != 1 {
		t.Fatalf("warm-up of the VIP flow: %+v, %v", tr, err)
	}
	return d
}

func wireOf(t testing.TB, p *packet.Parsed) []byte {
	t.Helper()
	b, err := p.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChainAllocBudget: the chain allocates nothing per packet, on
// every path. CI's bench job gates on it.
func TestChainAllocBudget(t *testing.T) {
	d := deployChain(t)
	for path, tmpl := range chainPaths() {
		var slots [32]packet.Parsed
		var ptrs [32]*packet.Parsed
		for i := range slots {
			ptrs[i] = &slots[i]
		}
		burst := func() {
			for i := range slots {
				slots[i].CopyFrom(tmpl)
			}
			if br := d.Switch.InjectQuietBatch(scenario.PortClient, ptrs[:]); br.Delivered != len(ptrs) || br.Recirculations != len(ptrs) {
				t.Fatalf("path %d: burst result %+v", path, br)
			}
		}
		for i := 0; i < 64; i++ {
			burst() // warm the context and trace pools
		}
		if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
			t.Errorf("path %d: %.2f allocations per burst of %d, want exactly 0", path, allocs, len(ptrs))
		}
	}
}

// TestChainTracedQuietBatchedAgree: the three injection modes are one
// datapath. Same pipelet path length, recirculations, exit port and
// output bytes for every SFC path.
func TestChainTracedQuietBatchedAgree(t *testing.T) {
	d := deployChain(t)
	for path, tmpl := range chainPaths() {
		plan, err := route.Plan(d.Chains[chainPos(d, path)].Chain, d.Placement, 0)
		if err != nil {
			t.Fatal(err)
		}

		traced := tmpl.Clone()
		before := d.Switch.Stats(scenario.PortClient).RxPackets.Load()
		tr, err := d.Switch.Inject(scenario.PortClient, traced)
		if err != nil || tr.Dropped || len(tr.Out) != 1 || len(tr.CPU) != 0 {
			t.Fatalf("path %d traced: %+v, %v", path, tr, err)
		}
		if tr.Path() != plan.Path() || tr.Recirculations != plan.Recirculations {
			t.Errorf("path %d traced: %s (%d recircs), route.Plan says %s (%d)",
				path, tr.Path(), tr.Recirculations, plan.Path(), plan.Recirculations)
		}
		want := wireOf(t, tr.Out[0].Pkt)
		if bytes.Equal(want, wireOf(t, tmpl)) {
			t.Fatalf("path %d: the chain left the packet untouched", path)
		}

		quiet := tmpl.Clone()
		q, err := d.Switch.InjectQuiet(scenario.PortClient, quiet)
		if err != nil || q.Dropped || q.Emitted != 1 || q.ToCPU != 0 {
			t.Fatalf("path %d quiet: %+v, %v", path, q, err)
		}
		if q.Recirculations != tr.Recirculations || q.Resubmissions != tr.Resubmissions || q.Latency != tr.Latency {
			t.Errorf("path %d quiet: %d/%d/%v, traced %d/%d/%v", path,
				q.Recirculations, q.Resubmissions, q.Latency, tr.Recirculations, tr.Resubmissions, tr.Latency)
		}
		if got := wireOf(t, quiet); !bytes.Equal(got, want) {
			t.Errorf("path %d: quiet output differs from traced\n got %x\nwant %x", path, got, want)
		}

		batch := []*packet.Parsed{tmpl.Clone(), tmpl.Clone(), tmpl.Clone()}
		br := d.Switch.InjectQuietBatch(scenario.PortClient, batch)
		if br.Err != nil || br.Delivered != len(batch) || br.Recirculations != len(batch)*tr.Recirculations ||
			br.Latency != tr.Latency*3 {
			t.Fatalf("path %d batched: %+v", path, br)
		}
		for i, p := range batch {
			if got := wireOf(t, p); !bytes.Equal(got, want) {
				t.Errorf("path %d: batched output %d differs from traced\n got %x\nwant %x", path, i, got, want)
			}
		}
		if got := d.Switch.Stats(scenario.PortClient).RxPackets.Load() - before; got != 5 {
			t.Errorf("path %d: %d packets admitted, want 5", path, got)
		}
	}
}

// refuseMarked is a fault hook that refuses, at the port, every packet
// whose IPv4 ID is refusedID.
type refuseMarked struct{}

const refusedID = 0xDEAD

func (refuseMarked) OnInject(_ asic.PortID, p *packet.Parsed) error {
	if p.IPv4.ID == refusedID {
		return errors.New("marked packet")
	}
	return nil
}
func (refuseMarked) OnEmit(asic.PortID, *packet.Parsed) bool        { return true }
func (refuseMarked) OnRecirculate(asic.PortID, *packet.Parsed) bool { return true }

// TestDeploymentInjectTraceOutlivesLaterPunts: the trace Inject returns
// for a repaired punt is the caller's. Poll reuses its traces and the
// drained packets they show at its next call; three more punting packets
// through Inject leave a held trace and the packet it shows as they were.
func TestDeploymentInjectTraceOutlivesLaterPunts(t *testing.T) {
	d := deployChain(t)
	flow := func(i int) *packet.Parsed {
		p := scenario.ClientTCP(443)
		p.TCP.SrcPort += uint16(100 + i)
		p.Payload = []byte{byte(i), 0x5E, 0x55}
		return p
	}
	held, err := d.Inject(scenario.PortClient, flow(0))
	if err != nil || len(held.Out) != 1 || held.Out[0].Port != scenario.PortBackends {
		t.Fatalf("repaired punt: %+v, %v", held, err)
	}
	path, port, was, pkt := held.Path(), held.Out[0].Port, *held, string(wireOf(t, held.Out[0].Pkt))
	for i := 1; i <= 3; i++ {
		if tr, err := d.Inject(scenario.PortClient, flow(i)); err != nil || len(tr.Out) != 1 {
			t.Fatalf("punt %d: %+v, %v", i, tr, err)
		}
	}
	if len(held.Out) != 1 || string(wireOf(t, held.Out[0].Pkt)) != pkt || held.Out[0].Port != port {
		t.Fatalf("the held trace's packet changed under later punts")
	}
	if held.Path() != path || held.Latency != was.Latency || held.Recirculations != was.Recirculations ||
		held.Dropped != was.Dropped || held.Out[0].Pkt.Payload[0] != 0 {
		t.Errorf("the held trace changed under later punts: %+v on %s, was %+v on %s", held, held.Path(), was, path)
	}
}

// TestInjectBurstMatchesSingle: a traced burst is N × Inject. Two
// identical deployments take the same 42 packets — the §5 chain's three
// paths, new VIP flows that are punted, packets the firewall drops,
// packets the port's fault hook refuses — one through Inject packet by
// packet, the other through one InjectBurst into one block of storage, and then
// the same again on a port that is down. Every trace and error agrees
// (steps, emissions and punted copies byte for byte, latency, drop code),
// and so does everything the switch counts: port statistics, the dvtel
// snapshot, NF executions, path packets, drops, the CPU queue.
func TestInjectBurstMatchesSingle(t *testing.T) {
	type side struct {
		d  *Deployment
		dp *telemetry.Datapath
	}
	mk := func() side {
		d := deployChain(t)
		dp := telemetry.NewDatapath(d.Config.Prof.Pipelines)
		d.Switch.SetTelemetry(dp)
		d.Switch.SetFaultHook(refuseMarked{})
		return side{d, dp}
	}
	packets := func() []*packet.Parsed {
		var pkts []*packet.Parsed
		for i := 0; i < 7; i++ {
			newFlow := scenario.ClientTCP(443)
			newFlow.TCP.SrcPort += uint16(1 + i)
			newFlow.Payload = []byte{byte(i), 0xC0, 0xDE}
			denied := scenario.ClientTCP(80)
			refused := scenario.InternetBound()
			refused.IPv4.ID = refusedID
			pkts = append(pkts, scenario.ClientTCP(443), scenario.TenantBound(), scenario.InternetBound(), newFlow, denied, refused)
		}
		return pkts
	}
	one, all := mk(), mk()

	wire := func(p *packet.Parsed) string { return string(wireOf(t, p)) }
	check := func(round string, kindsWanted ...string) {
		t.Helper()
		pkts := packets()
		want := make([]*asic.Trace, len(pkts))
		wantErr := make([]error, len(pkts))
		for i, p := range pkts {
			want[i], wantErr[i] = one.d.Switch.Inject(scenario.PortClient, p)
		}
		bufs := make([]asic.TraceBuf, len(pkts))
		got := make([]*asic.Trace, len(pkts))
		gotErr := make([]error, len(pkts))
		gotErr[0] = errors.New("stale") // InjectBurst owns every slot of its outputs
		bufs[1].Recirculations = 9      // and overwrites its storage
		all.d.Switch.InjectBurst(scenario.PortClient, packets(), bufs, got, gotErr)

		kinds := map[string]int{}
		for i := range pkts {
			w, g := want[i], got[i]
			if (wantErr[i] == nil) != (gotErr[i] == nil) || (wantErr[i] != nil && wantErr[i].Error() != gotErr[i].Error()) {
				t.Errorf("%s, packet %d: burst error %v, Inject error %v", round, i, gotErr[i], wantErr[i])
			}
			if (w == nil) != (g == nil) {
				t.Errorf("%s, packet %d: burst trace %v, Inject trace %v", round, i, g, w)
				continue
			}
			switch {
			case w == nil:
				kinds["refused"]++
				continue
			case w.Dropped:
				kinds["dropped"]++
			case len(w.CPU) > 0:
				kinds["punted"]++
			default:
				kinds["delivered"]++
			}
			if g.Path() != w.Path() || len(g.Steps) != len(w.Steps) || g.Latency != w.Latency ||
				g.Recirculations != w.Recirculations || g.Resubmissions != w.Resubmissions ||
				g.Dropped != w.Dropped || g.DropCode != w.DropCode || g.DropReason != w.DropReason ||
				len(g.Out) != len(w.Out) || len(g.CPU) != len(w.CPU) {
				t.Errorf("%s, packet %d:\n burst  %+v\n Inject %+v", round, i, g, w)
				continue
			}
			for j := range w.Steps {
				if g.Steps[j] != w.Steps[j] {
					t.Errorf("%s, packet %d step %d: %+v, Inject has %+v", round, i, j, g.Steps[j], w.Steps[j])
				}
			}
			for j := range w.Out {
				if g.Out[j].Port != w.Out[j].Port || wire(g.Out[j].Pkt) != wire(w.Out[j].Pkt) {
					t.Errorf("%s, packet %d: emission %d differs from Inject's", round, i, j)
				}
			}
			for j := range w.CPU {
				if wire(g.CPU[j]) != wire(w.CPU[j]) {
					t.Errorf("%s, packet %d: punted copy %d differs from Inject's", round, i, j)
				}
			}
		}
		t.Logf("%s: %v", round, kinds)

		a, b := one.d.Switch, all.d.Switch
		ports := []asic.PortID{asic.PortCPU}
		for p := 0; p < a.Profile().TotalPorts(); p++ {
			ports = append(ports, asic.PortID(p))
		}
		for pipe := 0; pipe < a.Profile().Pipelines; pipe++ {
			ports = append(ports, asic.RecircPort(pipe))
		}
		for _, p := range ports {
			x, y := a.Stats(p), b.Stats(p)
			if x.RxPackets.Load() != y.RxPackets.Load() || x.RxBytes.Load() != y.RxBytes.Load() ||
				x.TxPackets.Load() != y.TxPackets.Load() || x.TxBytes.Load() != y.TxBytes.Load() {
				t.Errorf("%s, port %d: burst rx %d/%d tx %d/%d, Inject rx %d/%d tx %d/%d", round, p,
					y.RxPackets.Load(), y.RxBytes.Load(), y.TxPackets.Load(), y.TxBytes.Load(),
					x.RxPackets.Load(), x.RxBytes.Load(), x.TxPackets.Load(), x.TxBytes.Load())
			}
		}
		if x, y := one.dp.Snapshot(), all.dp.Snapshot(); !reflect.DeepEqual(x, y) {
			t.Errorf("%s: dvtel snapshots differ\n burst  %+v\n Inject %+v", round, y, x)
		}
		for _, name := range []string{"classifier", "fw", "vgw", "lb", "router"} {
			if x, y := one.d.Telemetry().NFExecutions(name), all.d.Telemetry().NFExecutions(name); x != y {
				t.Errorf("%s: %s executed %d times under the burst, %d under Inject", round, name, y, x)
			}
		}
		for _, path := range []uint16{scenario.PathFull, scenario.PathMedium, scenario.PathBasic} {
			if x, y := one.d.Telemetry().PathPackets(path), all.d.Telemetry().PathPackets(path); x != y {
				t.Errorf("%s: path %d counted %d packets under the burst, %d under Inject", round, path, y, x)
			}
		}
		if a.Drops() != b.Drops() || a.CPUQueueDepth() != b.CPUQueueDepth() {
			t.Errorf("%s: burst %d drops, %d punts queued; Inject %d and %d", round, b.Drops(), b.CPUQueueDepth(), a.Drops(), a.CPUQueueDepth())
		}
		for _, k := range kindsWanted {
			if kinds[k] == 0 {
				t.Errorf("%s: no packet was %s", round, k)
			}
		}
	}

	check("port up", "delivered", "punted", "dropped", "refused")
	if snap := all.dp.Snapshot(); snap.ToCPU != 7 || snap.Refused != 7 || snap.Drops[telemetry.DropIngress]+snap.Drops[telemetry.DropEgress] != 7 {
		t.Errorf("dvtel after the burst: %+v; want 7 punts, 7 refusals, 7 firewall drops", snap)
	}
	for _, s := range []side{one, all} {
		if err := s.d.Switch.SetPortAdminState(scenario.PortClient, false); err != nil {
			t.Fatal(err)
		}
	}
	check("port down", "refused")
	if snap := all.dp.Snapshot(); snap.Refused != 7+42 {
		t.Errorf("dvtel after the burst on the down port: %d refused, want %d", snap.Refused, 7+42)
	}
}

func chainPos(d *Deployment, path uint16) int {
	for i, c := range d.Chains {
		if c.Chain.PathID == path {
			return i
		}
	}
	return -1
}

// TestRecycledSlotRunsTheChain: a Parsed slot that carried a packet
// through the chain (so its SFC struct holds a terminated path) and is
// then reused through Parse must run the chain again — recirculate
// once, leave rewritten — not be delivered in one pass untouched.
func TestRecycledSlotRunsTheChain(t *testing.T) {
	d := deployChain(t)
	for path, tmpl := range chainPaths() {
		frame := wireOf(t, tmpl)
		var slot packet.Parsed
		var first []byte
		for round := 0; round < 3; round++ {
			if err := slot.Parse(frame); err != nil {
				t.Fatal(err)
			}
			q, err := d.Switch.InjectQuiet(scenario.PortClient, &slot)
			if err != nil || q.Dropped || q.Emitted != 1 || q.Recirculations != 1 {
				t.Fatalf("path %d round %d: %+v, %v", path, round, q, err)
			}
			out := wireOf(t, &slot)
			if bytes.Equal(out, frame) {
				t.Fatalf("path %d round %d: packet left with untouched headers", path, round)
			}
			if round == 0 {
				first = out
			} else if !bytes.Equal(out, first) {
				t.Errorf("path %d round %d: output differs from the first use of the slot", path, round)
			}
		}
	}
}

// TestTableWritesWhileChainRuns pushes run-time writes to every NF's
// tables through the controller while two injectors run the full chain.
// Every write leaves the VIP flow's treatment intact or moves it
// atomically, so the assertion is strict: zero drops, and every packet
// rewritten by either the old or the new route — destination MAC and
// exit port from the same entry, never a mix. Run with -race.
func TestTableWritesWhileChainRuns(t *testing.T) {
	d := deployChain(t)
	tmpl := scenario.ClientTCP(443)
	ft, _ := tmpl.FiveTuple()
	backend, err := d.scenarioLB(t).SelectBackend(scenario.VIP, ft.Hash())
	if err != nil {
		t.Fatal(err)
	}

	// The new, more specific route to the backends: another port and
	// MAC than the 10.0/16 the scenario installs.
	newMAC := packet.MAC{0x02, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}
	const newPort = asic.PortID(12)
	oldTx := d.Switch.Stats(scenario.PortBackends).TxPackets.Load()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var sent, viaOld, viaNew atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slots [16]packet.Parsed
			var ptrs [16]*packet.Parsed
			for i := range slots {
				ptrs[i] = &slots[i]
			}
			for !stop.Load() {
				for i := range slots {
					slots[i].CopyFrom(tmpl)
				}
				br := d.Switch.InjectQuietBatch(scenario.PortClient, ptrs[:])
				if br.Err != nil || br.Delivered != len(ptrs) || br.Dropped != 0 || br.ToCPU != 0 {
					t.Errorf("burst during table writes: %+v", br)
					return
				}
				sent.Add(int64(len(ptrs)))
				for i := range slots {
					p := &slots[i]
					if p.IPv4.Dst != backend || p.IPv4.TTL != 63 || p.Valid(packet.HdrSFC) {
						t.Errorf("packet left wrong: %s ttl %d", p, p.IPv4.TTL)
						return
					}
					switch p.Eth.Dst {
					case newMAC:
						viaNew.Add(1)
					case scenario.WorkloadMAC:
						viaOld.Add(1)
					default:
						t.Errorf("destination MAC %s is neither route's", p.Eth.Dst)
						return
					}
				}
			}
		}()
	}

	apply := func(w ctl.TableWrite) {
		t.Helper()
		if err := d.Controller.Apply(w); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 200; round++ {
		// Writes that must not disturb the flow: unrelated ACL and
		// classification rules below the installed priorities, more
		// VNIs, sessions for other flows, routes to other prefixes.
		apply(ctl.TableWrite{NF: "fw", Table: "fw_acl", Args: []any{nf.ACLRule{
			DstIP: packet.IP4{192, 0, 2, byte(round)}, DstMask: packet.IP4{255, 255, 255, 255}, Priority: 1}}})
		apply(ctl.TableWrite{NF: "classifier", Table: "class_map", Args: []any{nf.ClassRule{
			DstIP: packet.IP4{192, 0, 2, byte(round)}, DstMask: packet.IP4{255, 255, 255, 255},
			Priority: 1, Path: scenario.PathBasic, InitialIndex: 2}}})
		apply(ctl.TableWrite{NF: "vgw", Table: "vni_table", Args: []any{uint32(7000 + round), uint16(round)}})
		apply(ctl.TableWrite{NF: "lb", Table: "lb_session", Args: []any{uint32(round) * 2654435761, scenario.Backend2}})
		apply(ctl.TableWrite{NF: "router", Table: "ipv4_lpm", Args: []any{
			packet.IP4{192, 0, byte(round), 0}, 24, nf.NextHop{Port: 3, DstMAC: scenario.UpstreamMAC, SrcMAC: scenario.GatewayMAC}}})
		if round == 100 {
			// The one write that moves the flow: a /24 over the backends.
			apply(ctl.TableWrite{NF: "router", Table: "ipv4_lpm", Args: []any{
				packet.IP4{10, 0, 1, 0}, 24, nf.NextHop{Port: uint16(newPort), DstMAC: newMAC, SrcMAC: scenario.GatewayMAC}}})
		}
	}
	stop.Store(true)
	wg.Wait()

	if d.Switch.Drops() != 0 {
		t.Errorf("%d packets dropped", d.Switch.Drops())
	}
	gotOld := int64(d.Switch.Stats(scenario.PortBackends).TxPackets.Load() - oldTx)
	gotNew := int64(d.Switch.Stats(newPort).TxPackets.Load())
	if gotOld != viaOld.Load() || gotNew != viaNew.Load() || gotOld+gotNew != sent.Load() {
		t.Errorf("%d packets sent: %d carried the old MAC and %d left the old port, %d the new MAC and %d the new port",
			sent.Load(), viaOld.Load(), gotOld, viaNew.Load(), gotNew)
	}
	if viaNew.Load() == 0 {
		// The injectors may not have been scheduled after round 100.
		q, err := d.Switch.InjectQuiet(scenario.PortClient, tmpl.Clone())
		if err != nil || q.Emitted != 1 || d.Switch.Stats(newPort).TxPackets.Load() == 0 {
			t.Errorf("the new route never took effect: %+v, %v", q, err)
		}
	}
}

// scenarioLB returns the deployment's load balancer.
func (d *Deployment) scenarioLB(t testing.TB) *nf.LoadBalancer {
	t.Helper()
	lb, ok := d.Config.NFs.ByName("lb").(*nf.LoadBalancer)
	if !ok {
		t.Fatal("deployment has no load balancer")
	}
	return lb
}

// BenchmarkChainQuietBatch is the §5 chain at struct level, one SFC
// path per sub-benchmark, in bursts of 32; ns/op is per packet.
func BenchmarkChainQuietBatch(b *testing.B) {
	d := deployChain(b)
	names := map[uint16]string{scenario.PathFull: "full", scenario.PathMedium: "medium", scenario.PathBasic: "basic"}
	for path, tmpl := range chainPaths() {
		b.Run(names[path], func(b *testing.B) {
			var slots [32]packet.Parsed
			var ptrs [32]*packet.Parsed
			for i := range slots {
				ptrs[i] = &slots[i]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(slots) {
				for i := range slots {
					slots[i].CopyFrom(tmpl)
				}
				if br := d.Switch.InjectQuietBatch(scenario.PortClient, ptrs[:]); br.Delivered != len(ptrs) {
					b.Fatalf("burst result %+v", br)
				}
			}
		})
	}
}

// TestBurstCountersExact: NF-execution and path counters are tallied per
// burst and flushed when the burst returns, against the runtime of the
// snapshot the burst ran under. Everything that can race a flush runs at
// once — two batch injectors, single-packet injections that count
// directly, chain-set hot swaps replacing the runtime — and afterwards
// every counter equals its analytic total. Along the way a burst's
// counts are visible the moment its call returns; a chain whose index
// lies past the tally's chain cells and a path no chain declares count
// as exactly. Run with -race (CI does, x5).
func TestBurstCountersExact(t *testing.T) {
	const (
		extraChains = 8 // with the scenario's three: chain indices 0–10, the tally holds 0–7
		lastPath    = 100 + extraChains - 1
		undeclared  = 999 // a path the classifier stamps and no chain declares
		burst       = 16
		rounds      = 1500
	)
	cfg := edgeConfig()
	classifier := cfg.NFs.ByName("classifier").(*nf.Classifier)
	steer := func(dst packet.IP4, path uint16) {
		t.Helper()
		if err := classifier.AddRule(nf.ClassRule{DstIP: dst, DstMask: packet.IP4{255, 255, 255, 255}, Priority: 30, Path: path, InitialIndex: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extraChains; i++ {
		cfg.Chains = append(cfg.Chains, route.Chain{PathID: uint16(100 + i), NFs: []string{"classifier", "router"}, Weight: 0.01})
		steer(packet.IP4{198, 18, 0, byte(i)}, uint16(100+i))
	}
	steer(packet.IP4{198, 18, 1, 1}, undeclared)
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := d.Inject(scenario.PortClient, scenario.ClientTCP(443)); err != nil || len(tr.Out) != 1 {
		t.Fatalf("warm-up of the VIP flow: %+v, %v", tr, err)
	}
	to := func(dst packet.IP4) *packet.Parsed {
		p := scenario.InternetBound()
		p.IPv4.Dst = dst
		return p
	}
	tel := d.Telemetry() // one Telemetry across every generation of the runtime
	if ci, ok := d.installed.Res.Dep.Runtime.Branching().ChainIndex(lastPath); !ok || ci < 8 {
		t.Fatalf("path %d has chain index %d, %v: not past the tally's chain cells", lastPath, ci, ok)
	}
	base := map[string]uint64{}
	for _, name := range []string{"classifier", "fw", "vgw", "lb", "router"} {
		base[name] = tel.NFExecutions(name)
	}
	basePath := map[uint16]uint64{}
	for _, p := range []uint16{scenario.PathFull, scenario.PathMedium, scenario.PathBasic, lastPath, undeclared} {
		basePath[p] = tel.PathPackets(p)
	}

	var wg sync.WaitGroup
	var swapping atomic.Bool
	swapping.Store(true)
	// Two batch injectors, each the only source of its path, so the
	// path's counter after a burst is exactly what the injector has sent.
	batch := func(path uint16, tmpl *packet.Parsed) {
		defer wg.Done()
		var slots [burst]packet.Parsed
		var ptrs [burst]*packet.Parsed
		for i := range slots {
			ptrs[i] = &slots[i]
		}
		for r := 1; r <= rounds; r++ {
			for i := range slots {
				slots[i].CopyFrom(tmpl)
			}
			if br := d.Switch.InjectQuietBatch(scenario.PortClient, ptrs[:]); br.Err != nil || br.Delivered != burst {
				t.Errorf("path %d burst %d: %+v", path, r, br)
				return
			}
			if got, want := tel.PathPackets(path)-basePath[path], uint64(r*burst); got != want {
				t.Errorf("path %d: %d packets counted when burst %d returned, want %d", path, got, r, want)
				return
			}
		}
	}
	wg.Add(3)
	go batch(scenario.PathFull, scenario.ClientTCP(443))
	go batch(lastPath, to(packet.IP4{198, 18, 0, extraChains - 1}))
	// Single-packet injections between the bursts: these count directly.
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := d.Switch.Inject(scenario.PortClient, scenario.TenantBound()); err != nil {
				t.Error(err)
			}
			if _, err := d.Switch.InjectQuiet(scenario.PortClient, scenario.InternetBound()); err != nil {
				t.Error(err)
			}
			if q, err := d.Switch.InjectQuiet(scenario.PortClient, to(packet.IP4{198, 18, 1, 1})); err != nil || q.Emitted != 0 {
				t.Errorf("packet on an undeclared path: %+v, %v", q, err)
			}
		}
		swapping.Store(false)
	}()
	// Hot swaps for as long as traffic runs: every one publishes a new
	// runtime, and a burst in flight flushes into the one it started on.
	// The chain that comes and goes sits first in the list, so chain
	// indices — the tally's cells — mean other chains from one runtime to
	// the next.
	visitor := route.Chain{PathID: 500, NFs: []string{"classifier", "fw", "router"}, Weight: 0.01}
	swaps := 0
	for swapping.Load() || swaps < 2 {
		if err := d.Reconfigure(append([]route.Chain{visitor}, d.Config.Chains...)); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveChain(visitor.PathID); err != nil {
			t.Fatal(err)
		}
		swaps += 2
	}
	wg.Wait()

	n := uint64(rounds)
	for name, want := range map[string]uint64{
		"classifier": n*burst*2 + 3*n, "router": n*burst*2 + 2*n, // the undeclared path ends at the classifier
		"fw": n * burst, "lb": n * burst, "vgw": n*burst + n,
	} {
		if got := tel.NFExecutions(name) - base[name]; got != want {
			t.Errorf("%s executed %d times, want %d", name, got, want)
		}
	}
	for path, want := range map[uint16]uint64{
		scenario.PathFull: n * burst, lastPath: n * burst, scenario.PathMedium: n, scenario.PathBasic: n, undeclared: n,
	} {
		if got := tel.PathPackets(path) - basePath[path]; got != want {
			t.Errorf("path %d counted %d packets, want %d", path, got, want)
		}
	}
	t.Logf("%d hot swaps beside %d bursts", swaps, 2*rounds)
}
