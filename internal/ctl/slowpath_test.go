package ctl

import (
	"errors"
	"sync"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// newFlows returns n first packets of VIP flows nobody has sent yet:
// flow number i of a test differs from every other in its source port
// and the low bytes of its source address.
func newFlows(from, n int) []*packet.Parsed {
	pkts := make([]*packet.Parsed, n)
	for i := range pkts {
		f := from + i
		pkts[i] = packet.NewTCP(packet.TCPOpts{
			SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
			Src: packet.IP4{198, 51, byte(f >> 16), byte(f >> 8)}, Dst: scenario.VIP,
			SrcPort: uint16(1024 + f%50000), DstPort: 443,
			Payload: []byte{byte(f), byte(f >> 8), byte(f >> 16)},
		})
	}
	return pkts
}

// TestPollBudget: a burst of 32 new flows through InjectQuietBatch and
// one Poll — punt, session install, traced reinjection — stays within
// 0.05 allocations a flow: the session install makes none, the punt's
// chunk, arena and queue are the switch's from the drain before last,
// the reinjection's traces the controller's from the Poll before, so what
// is left is the session table's amortised growth.
func TestPollBudget(t *testing.T) {
	_, sw, ctrl := deployed(t)
	const burst, runs = 32, 100
	flows := newFlows(0, burst*(runs+1))
	at := 0
	perBurst := testing.AllocsPerRun(runs, func() {
		br := sw.InjectQuietBatch(scenario.PortClient, flows[at:at+burst])
		traces, err := ctrl.Poll()
		if br.ToCPU != burst || len(traces) != burst || err != nil {
			t.Fatalf("burst at %d: %+v, %d reinjected, %v", at, br, len(traces), err)
		}
		at += burst
	})
	if perFlow := perBurst / burst; perFlow > 0.05 {
		t.Errorf("%.3f allocations per new flow, budget 0.05", perFlow)
	} else {
		t.Logf("%.3f allocations per new flow", perFlow)
	}
}

// TestTracedChainOneAllocation: the §5 full path — four pipelet steps,
// one recirculation, one emission — fits the traced trace's inline
// room, so the reinjection Poll makes is one allocation.
func TestTracedChainOneAllocation(t *testing.T) {
	_, sw, ctrl := deployed(t)
	if _, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443)); err != nil {
		t.Fatal(err)
	}
	if traces, err := ctrl.Poll(); len(traces) != 1 || err != nil {
		t.Fatalf("session not established: %d traces, %v", len(traces), err)
	}
	tmpl := scenario.ClientTCP(443)
	var pkt packet.Parsed
	var tr *asic.Trace
	got := testing.AllocsPerRun(200, func() {
		pkt.CopyFrom(tmpl)
		tr, _ = sw.Inject(scenario.PortClient, &pkt)
	})
	if got != 1 {
		t.Errorf("traced Inject of the full path = %.1f allocations, want 1", got)
	}
	if len(tr.Steps) != 4 || len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortBackends || tr.Recirculations != 1 {
		t.Errorf("full-path trace: %s, out %+v", tr.Path(), tr.Out)
	}
}

// TestReinjectedPacketsOutliveLaterBursts: the traces one Poll returns,
// and the packets they show, are valid until the next Poll. Three more
// bursts punted in between leave every held trace showing the packet it
// showed, byte for byte; the packets of one Poll are distinct; and a later
// Poll reuses the memory of one before it.
func TestReinjectedPacketsOutliveLaterBursts(t *testing.T) {
	_, sw, ctrl := deployed(t)
	const burst = 32
	punt := func(r int) {
		if br := sw.InjectQuietBatch(scenario.PortClient, newFlows(r*burst, burst)); br.ToCPU != burst {
			t.Fatalf("burst %d: %+v", r, br)
		}
	}
	poll := func(round, want int) []*asic.Trace {
		traces, err := ctrl.Poll()
		if len(traces) != want || err != nil {
			t.Fatalf("round %d: %d reinjected, want %d: %v", round, len(traces), want, err)
		}
		return traces
	}
	wire := func(traces []*asic.Trace) [][]byte {
		out := make([][]byte, len(traces))
		for i, tr := range traces {
			if tr.Dropped || len(tr.Out) != 1 {
				t.Fatalf("trace %d: %+v", i, tr)
			}
			b, err := tr.Out[0].Pkt.Serialize(nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}

	reused := false
	var earlier map[*packet.Parsed]bool
	for round := 0; round < 4; round++ {
		punt(4 * round)
		held := poll(round, burst)
		before := wire(held)
		seen := make(map[*packet.Parsed]bool)
		for _, tr := range held {
			if seen[tr.Out[0].Pkt] {
				t.Fatalf("round %d: one Poll reinjected a packet twice", round)
			}
			seen[tr.Out[0].Pkt] = true
			reused = reused || earlier[tr.Out[0].Pkt]
		}
		for later := 1; later <= 3; later++ {
			punt(4*round + later)
		}
		for i, b := range wire(held) {
			if string(b) != string(before[i]) {
				t.Errorf("round %d: packet of held trace %d changed under later bursts", round, i)
			}
			if p := held[i].Out[0].Pkt; len(held[i].Steps) != 4 || p.Payload[0] != byte(4*round*burst+i) {
				t.Errorf("round %d: held trace %d: %d steps, payload %v", round, i, len(held[i].Steps), p.Payload)
			}
		}
		poll(round, 3*burst) // the later bursts
		earlier = seen
	}
	if !reused {
		t.Error("no Poll reused the memory of a Poll before it")
	}
}

// TestConcurrentPuntAndPoll: two injectors punting new flows beside one
// poller. Every punted flow ends with exactly one session and one
// reinjection out of the backend port. Run with -race -count=5 (CI
// does).
func TestConcurrentPuntAndPoll(t *testing.T) {
	s, sw, ctrl := deployed(t)
	const injectors, perInjector, burst = 2, 1536, 32 // fewer flows than the queue's cap: nothing is refused
	var punted [injectors]int
	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flows := newFlows(w*perInjector, perInjector)
			for at := 0; at < perInjector; at += burst {
				br := sw.InjectQuietBatch(scenario.PortClient, flows[at:at+burst])
				if br.Err != nil || br.Dropped != 0 {
					t.Errorf("injector %d: %+v", w, br)
				}
				punted[w] += br.ToCPU
			}
		}()
	}
	injected := make(chan struct{})
	go func() { wg.Wait(); close(injected) }()

	reinjected := 0
	poll := func() {
		traces, err := ctrl.Poll()
		if err != nil {
			t.Errorf("Poll: %v", err)
		}
		for _, tr := range traces {
			if tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortBackends {
				t.Errorf("reinjected packet did not complete the chain: %+v", tr)
			}
		}
		reinjected += len(traces)
	}
	for done := false; !done; {
		select {
		case <-injected:
			done = true
		default:
		}
		poll() // once more after the last injector returned
	}

	total := punted[0] + punted[1]
	st := ctrl.Stats()
	tx := int(sw.Stats(scenario.PortBackends).TxPackets.Load())
	if total != injectors*perInjector || reinjected != total || st.SessionsInstalled != total ||
		st.Reinjected != total || s.LB.Sessions() != total || tx != total || st.Failed != 0 || sw.CPUQueueDepth() != 0 {
		t.Errorf("%d punted: %d traces, stats %+v, %d sessions, %d out of the backend port, %d still queued",
			total, reinjected, st, s.LB.Sessions(), tx, sw.CPUQueueDepth())
	}
}

// TestConcurrentPollsBesidePunts: two pollers beside two injectors that
// punt ten times the CPU queue's cap of new flows. Polls are serialized, so
// the storage they reuse is never written by two at once; the pollers see
// only how many traces they got, as a poller's traces are valid only until
// the next Poll, whoever makes it. Every punt is repaired and reinjected
// once, every flow the queue refused is a drop, and afterwards the
// controller keeps one burst's storage. Run with -race (CI does).
func TestConcurrentPollsBesidePunts(t *testing.T) {
	s, sw, ctrl := deployed(t)
	const injectors, pollers, burst = 2, 2, 32
	const perInjector = 10 * 4096 / injectors // ten times the CPU queue's cap
	var punted, dropped, delivered [injectors]int
	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flows := newFlows(w*perInjector, perInjector)
			for at := 0; at < perInjector; at += burst {
				br := sw.InjectQuietBatch(scenario.PortClient, flows[at:at+burst])
				if br.Err != nil {
					t.Errorf("injector %d: %+v", w, br)
				}
				punted[w] += br.ToCPU
				dropped[w] += br.Dropped
				delivered[w] += br.Delivered
			}
		}()
	}
	injected := make(chan struct{})
	go func() { wg.Wait(); close(injected) }()

	var reinjected [pollers]int
	var pw sync.WaitGroup
	for p := 0; p < pollers; p++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			for done := false; !done; {
				select {
				case <-injected:
					done = true
				default:
				}
				traces, err := ctrl.Poll() // once more after the injectors returned
				if err != nil {
					t.Errorf("poller %d: %v", p, err)
				}
				reinjected[p] += len(traces)
			}
		}()
	}
	pw.Wait()

	total := punted[0] + punted[1]
	st := ctrl.Stats()
	tx := int(sw.Stats(scenario.PortBackends).TxPackets.Load())
	if got := total + dropped[0] + dropped[1] + delivered[0] + delivered[1]; got != injectors*perInjector {
		t.Errorf("%d of %d flows accounted for", got, injectors*perInjector)
	}
	if reinjected[0]+reinjected[1] != total || st.Reinjected != total || st.SessionsInstalled != total ||
		st.Failed != 0 || tx != total+delivered[0]+delivered[1] || sw.CPUQueueDepth() != 0 || total == 0 {
		t.Errorf("%d punted, %d delivered directly: %v traces, stats %+v, %d sessions, %d out of the backend port, %d still queued",
			total, delivered[0]+delivered[1], reinjected, st, s.LB.Sessions(), tx, sw.CPUQueueDepth())
	}
	t.Logf("%d punted, %d refused by the full queue", total, dropped[0]+dropped[1])
	checkKept(t, ctrl)
}

// TestPollKeepsOneBurst: a Poll that drains the queue's full cap of
// punts reinjects them all into storage the controller does not keep;
// after two small Polls it holds one burst's traces.
func TestPollKeepsOneBurst(t *testing.T) {
	_, sw, ctrl := deployed(t)
	const burst, full = 32, 4096
	flows := newFlows(0, full+2*burst)
	for at := 0; at < full; at += burst {
		if br := sw.InjectQuietBatch(scenario.PortClient, flows[at:at+burst]); br.ToCPU != burst {
			t.Fatalf("burst at %d: %+v", at, br)
		}
	}
	if traces, err := ctrl.Poll(); len(traces) != full || err != nil {
		t.Fatalf("full drain: %d reinjected, %v", len(traces), err)
	}
	for at := full; at < len(flows); at += burst {
		sw.InjectQuietBatch(scenario.PortClient, flows[at:at+burst])
		if traces, err := ctrl.Poll(); len(traces) != burst || err != nil {
			t.Fatalf("small drain: %d reinjected, %v", len(traces), err)
		}
	}
	checkKept(t, ctrl)
}

// checkKept fails the test unless the controller keeps at most one
// burst's trace block and slices.
func checkKept(t *testing.T, c *Controller) {
	t.Helper()
	c.pollMu.Lock()
	defer c.pollMu.Unlock()
	if cap(c.bufs) > asic.CPUChunkMax || cap(c.traces) > asic.CPUChunkMax || cap(c.errs) > asic.CPUChunkMax {
		t.Errorf("the controller keeps %d trace buffers, %d traces and %d errors; cap %d",
			cap(c.bufs), cap(c.traces), cap(c.errs), asic.CPUChunkMax)
	}
}

// TestRemovedChainPuntsAreNotRepaired: packets the classifier still
// stamps with the path of a chain that was removed are punted by the
// branching table, and no state the controller could install would stop
// that. One Poll counts them unknown and lets them go: the CPU queue is
// empty afterwards and the NAT in the NF list untouched — reinjected they
// would come straight back, mapped afresh every round, and 45 of them
// fill a 1 024-entry NAT table. A flow that does wait for its mapping
// gets it once, however often it is punted before the mapping shows.
func TestRemovedChainPuntsAreNotRepaired(t *testing.T) {
	s := scenario.MustNew()
	var kept []route.Chain
	for _, ch := range s.Chains {
		if ch.PathID != scenario.PathMedium {
			kept = append(kept, ch)
		}
	}
	sw := installed(t, s, kept, s.NFs)
	nat := nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1024)
	ctrl := New(sw, append(nf.List{nat}, s.NFs...))

	const orphans = 45
	pkts := make([]*packet.Parsed, orphans)
	for i := range pkts {
		pkts[i] = scenario.TenantBound()
		pkts[i].TCP.SrcPort += uint16(i)
	}
	if br := sw.InjectQuietBatch(scenario.PortClient, pkts); br.ToCPU != orphans {
		t.Fatalf("packets of the removed chain: %+v, want %d punts", br, orphans)
	}
	for round := 1; round <= 3; round++ {
		traces, err := ctrl.Poll()
		if len(traces) != 0 || err != nil {
			t.Fatalf("round %d: %d reinjected, %v", round, len(traces), err)
		}
		if st := ctrl.Stats(); st.Unknown != orphans || st.NATAllocated != 0 || st.Reinjected != 0 ||
			nat.Mappings() != 0 || sw.CPUQueueDepth() != 0 {
			t.Fatalf("round %d: stats %+v, %d mappings, %d still queued; want %d unknown and nothing else",
				round, st, nat.Mappings(), sw.CPUQueueDepth(), orphans)
		}
	}

	// The same flow punted twice before its mapping is in: one mapping.
	flow := packet.NewTCP(packet.TCPOpts{Src: packet.IP4{10, 0, 9, 9}, Dst: packet.IP4{8, 8, 8, 8}, SrcPort: 1234, DstPort: 80})
	for i, want := range []bool{true, false} {
		if again, err := ctrl.HandlePacketIn(flow); again != want || err != nil {
			t.Errorf("punt %d of one NAT flow: reinject=%v, %v", i+1, again, err)
		}
	}
	if st := ctrl.Stats(); st.NATAllocated != 1 || nat.Mappings() != 1 || st.Unknown != orphans+1 {
		t.Errorf("after two punts of one flow: %+v, %d mappings", st, nat.Mappings())
	}
}

// TestNATPortsExhausted: the allocator hands out 50000–65535 once each.
// The 15 537th miss is a typed failure — counted, not reinjected, and
// no earlier mapping is touched — instead of wrapping to port 0.
func TestNATPortsExhausted(t *testing.T) {
	sw := asic.New(asic.Wedge100B())
	sw.InstallIngress(0, func(c *asic.Ctx) { c.Meta.ToCPU = true })
	n := nf.NewNAT(packet.IP4{192, 0, 2, 1}, 0)
	ctrl := New(sw, nf.List{n})
	flow := func(i int) *packet.Parsed {
		return packet.NewTCP(packet.TCPOpts{
			Src: packet.IP4{10, 0, byte(i >> 8), byte(i)}, Dst: packet.IP4{8, 8, 8, 8},
			SrcPort: 1234, DstPort: 80,
		})
	}
	const ports = 0x10000 - natFirstPort
	for i := 0; i < ports; i++ {
		if again, err := ctrl.HandlePacketIn(flow(i)); !again || err != nil {
			t.Fatalf("flow %d: reinject=%v, %v", i, again, err)
		}
	}
	if _, err := sw.InjectQuiet(0, flow(ports)); err != nil {
		t.Fatal(err)
	}
	traces, err := ctrl.Poll()
	if !errors.Is(err, ErrNATPortsExhausted) || len(traces) != 0 {
		t.Errorf("flow %d: %d reinjected, err %v; want ErrNATPortsExhausted", ports, len(traces), err)
	}
	st := ctrl.Stats()
	if st.NATAllocated != ports || st.Failed != 1 || st.Reinjected != 0 || n.Mappings() != ports {
		t.Errorf("Stats = %+v, %d mappings; want %d allocated, 1 failed", st, n.Mappings(), ports)
	}
	// The first flow still has the first port.
	first := flow(0)
	n.Execute(first)
	if first.TCP.SrcPort != natFirstPort {
		t.Errorf("first flow translated to port %d, want %d", first.TCP.SrcPort, natFirstPort)
	}
}

// TestNATPortKeptWhenInstallFails: a mapping that does not go in costs
// no port and counts no allocation.
func TestNATPortKeptWhenInstallFails(t *testing.T) {
	n := nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1)
	ctrl := New(asic.New(asic.Wedge100B()), nf.List{n})
	flow := func(i int) *packet.Parsed {
		return packet.NewTCP(packet.TCPOpts{Src: packet.IP4{10, 0, 0, byte(i)}, Dst: packet.IP4{8, 8, 8, 8}, SrcPort: 1234, DstPort: 80})
	}
	if again, err := ctrl.HandlePacketIn(flow(1)); !again || err != nil {
		t.Fatalf("first flow: reinject=%v, %v", again, err)
	}
	for i := 2; i <= 4; i++ {
		if again, err := ctrl.HandlePacketIn(flow(i)); again || err == nil {
			t.Fatalf("flow %d went into a full table", i)
		}
	}
	if st := ctrl.Stats(); st.NATAllocated != 1 || ctrl.natNextPort != natFirstPort+1 || n.Mappings() != 1 {
		t.Errorf("after three failed installs: %+v, next port %d, %d mappings", st, ctrl.natNextPort, n.Mappings())
	}
}

// BenchmarkPollPunt is the slow path per burst: 32 new flows punted
// through InjectQuietBatch, then one Poll that installs their sessions
// and reinjects them traced. A fresh deployment every 2¹⁴ flows keeps
// the session table from growing with b.N.
func BenchmarkPollPunt(b *testing.B) {
	const burst, epoch = 32, 1 << 14
	var flows []*packet.Parsed
	var sw *asic.Switch
	var ctrl *Controller
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := i * burst % epoch
		if at == 0 {
			b.StopTimer()
			_, sw, ctrl = deployed(b)
			flows = newFlows(0, epoch) // the chain rewrites what it is given
			b.StartTimer()
		}
		br := sw.InjectQuietBatch(scenario.PortClient, flows[at:at+burst])
		traces, err := ctrl.Poll()
		if br.ToCPU != burst || len(traces) != burst || err != nil {
			b.Fatalf("burst at %d: %+v, %d reinjected, %v", at, br, len(traces), err)
		}
	}
}
