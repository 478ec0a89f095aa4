package ctl

import (
	"errors"
	"sync"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compose"
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
// one allocation a flow: the session install makes none, so what is
// left is what the burst pays once — chunk, arena and queue of the
// punt, trace block, trace and error slices of the reinjection — and
// the session table's amortised growth.
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
	if perFlow := perBurst / burst; perFlow > 1 {
		t.Errorf("%.2f allocations per new flow, budget 1", perFlow)
	} else {
		t.Logf("%.2f allocations per new flow", perFlow)
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

// TestReinjectedPacketsOutliveLaterBursts: the packets and traces one
// Poll returns belong to the caller — three more bursts punted, polled
// and reinjected later, every held trace still shows the packet it
// showed, byte for byte, and no later trace shows the same packet.
func TestReinjectedPacketsOutliveLaterBursts(t *testing.T) {
	_, sw, ctrl := deployed(t)
	const burst = 32
	round := func(r int) []*asic.Trace {
		br := sw.InjectQuietBatch(scenario.PortClient, newFlows(r*burst, burst))
		traces, err := ctrl.Poll()
		if br.ToCPU != burst || len(traces) != burst || err != nil {
			t.Fatalf("round %d: %+v, %d reinjected, %v", r, br, len(traces), err)
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

	held := round(0)
	before := wire(held)
	seen := make(map[*packet.Parsed]bool)
	for _, tr := range held {
		seen[tr.Out[0].Pkt] = true
	}
	for r := 1; r <= 3; r++ {
		for _, tr := range round(r) {
			if seen[tr.Out[0].Pkt] {
				t.Fatalf("round %d reinjected a packet an earlier trace holds", r)
			}
			seen[tr.Out[0].Pkt] = true
		}
	}
	for i, b := range wire(held) {
		if string(b) != string(before[i]) {
			t.Errorf("packet of held trace %d changed under later bursts", i)
		}
		if p := held[i].Out[0].Pkt; len(held[i].Steps) != 4 || p.Payload[0] != byte(i) {
			t.Errorf("held trace %d: %d steps, payload %v", i, len(held[i].Steps), p.Payload)
		}
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
	c, err := compose.New(s.Prof, kept, s.Placement, s.NFs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	sw := asic.New(s.Prof)
	if err := d.InstallOn(sw); err != nil {
		t.Fatal(err)
	}
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
