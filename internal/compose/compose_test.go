package compose

import (
	"strings"
	"sync/atomic"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/packet"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// deploy builds the §5 scenario, composes it and loads it onto a
// switch.
func deploy(t *testing.T) (*scenario.Scenario, *Composer, *asic.Switch) {
	t.Helper()
	s := scenario.MustNew()
	c, err := New(s.Prof, s.Chains, s.Placement, s.NFs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	sw := asic.New(s.Prof)
	if err := d.InstallOn(sw); err != nil {
		t.Fatal(err)
	}
	return s, c, sw
}

func TestComposerRejectsBadPlacement(t *testing.T) {
	s := scenario.MustNew()
	empty := route.NewPlacement()
	if _, err := New(s.Prof, s.Chains, empty, s.NFs); err == nil {
		t.Error("composer accepted placement missing NFs")
	}
}

func TestNFIDsStable(t *testing.T) {
	s := scenario.MustNew()
	c1, _ := New(s.Prof, s.Chains, s.Placement, s.NFs)
	c2, _ := New(s.Prof, s.Chains, s.Placement, s.NFs)
	for _, f := range s.NFs {
		if c1.NFID(f.Name()) != c2.NFID(f.Name()) {
			t.Errorf("NFID(%s) unstable", f.Name())
		}
		if c1.NFID(f.Name()) == 0 {
			t.Errorf("NFID(%s) = 0 (reserved)", f.Name())
		}
	}
}

func TestGenericParserCoversAllNFs(t *testing.T) {
	s := scenario.MustNew()
	g, idt, err := MergeParser(ChainNFs(s.Chains), s.NFs)
	if err != nil {
		t.Fatal(err)
	}
	// The VGW's inner headers and the classifier's dual layouts must
	// both survive the merge.
	for _, v := range []struct {
		typ string
		off int
	}{
		{"ipv4", 14}, {"ipv4", 34}, {"vxlan", 62}, {"ipv4", 84}, {"arp", 14},
	} {
		if !g.HasVertex(vertexOf(v.typ, v.off)) {
			t.Errorf("generic parser missing %s@%d", v.typ, v.off)
		}
	}
	if idt.Len() < g.ParseStates() {
		t.Error("ID table smaller than parser state count")
	}
}

func TestPipeletBlocksCompile(t *testing.T) {
	s, c, _ := deploy(t)
	d, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	totalFrameworkStages := 0
	var plans []*compiler.Plan
	for pl, block := range d.Blocks {
		plan, err := compiler.Allocate(block, s.Prof.StagesPerPipelet)
		if err != nil {
			t.Fatalf("pipelet %s does not compile: %v", pl, err)
		}
		totalFrameworkStages += plan.FrameworkStages()
		plans = append(plans, plan)
	}
	if totalFrameworkStages == 0 {
		t.Error("no framework stages found")
	}
	// Table-1 shape: framework stage share on the 48-stage ASIC should
	// be in the ~15-30% band around the paper's 20.8%.
	rep := compiler.FrameworkReport(s.Prof, plans)
	st, _ := rep.Get("Stages")
	if st.Percent < 10 || st.Percent > 35 {
		t.Errorf("framework stage share = %.1f%%, expected ~20%%", st.Percent)
	}
	tcam, _ := rep.Get("TCAM")
	if tcam.Used != 0 {
		t.Errorf("framework TCAM = %d, want 0 (paper Table 1)", tcam.Used)
	}
}

func TestEndToEndFullPath(t *testing.T) {
	s, _, sw := deploy(t)

	// First client packet to the VIP: LB session miss -> to CPU.
	tr, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CPU) != 1 {
		t.Fatalf("first packet: CPU=%d out=%d dropped=%v(%s)", len(tr.CPU), len(tr.Out), tr.Dropped, tr.DropReason)
	}

	// Control plane installs the session.
	miss := tr.CPU[0]
	ft, ok := miss.FiveTuple()
	if !ok {
		t.Fatal("punted packet has no five-tuple")
	}
	backend, err := s.LB.SelectBackend(scenario.VIP, ft.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LB.InstallSession(ft.Hash(), backend); err != nil {
		t.Fatal(err)
	}

	// Second packet: full chain, out via the backend port.
	tr2, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Dropped {
		t.Fatalf("packet dropped: %s (path %s)", tr2.DropReason, tr2.Path())
	}
	if len(tr2.Out) != 1 || tr2.Out[0].Port != scenario.PortBackends {
		t.Fatalf("out = %+v, want port %d", tr2.Out, scenario.PortBackends)
	}
	got := tr2.Out[0].Pkt
	if got.IPv4.Dst != backend {
		t.Errorf("dst = %s, want backend %s", got.IPv4.Dst, backend)
	}
	if got.Valid(packet.HdrSFC) {
		t.Error("SFC header still on the wire at exit")
	}
	if got.IPv4.TTL != 63 {
		t.Errorf("TTL = %d, want 63", got.IPv4.TTL)
	}
	// §5 configuration: exactly one recirculation for the whole chain.
	if tr2.Recirculations != 1 {
		t.Errorf("recirculations = %d, want 1 (path %s)", tr2.Recirculations, tr2.Path())
	}
}

func TestEndToEndFirewallDeny(t *testing.T) {
	_, _, sw := deploy(t)
	// TCP to the VIP on a non-443 port is denied by the firewall.
	tr, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(22))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Dropped {
		t.Fatalf("denied packet not dropped (path %s)", tr.Path())
	}
}

func TestEndToEndMediumPathVXLANEncap(t *testing.T) {
	_, _, sw := deploy(t)
	tr, err := sw.Inject(scenario.PortClient, scenario.TenantBound())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped || len(tr.Out) != 1 {
		t.Fatalf("trace: dropped=%v(%s) out=%d path=%s", tr.Dropped, tr.DropReason, len(tr.Out), tr.Path())
	}
	if tr.Out[0].Port != scenario.PortVTEP {
		t.Errorf("out port = %d, want %d", tr.Out[0].Port, scenario.PortVTEP)
	}
	got := tr.Out[0].Pkt
	if !got.Valid(packet.HdrVXLAN) {
		t.Fatalf("tenant-bound packet not encapsulated: %s", got.String())
	}
	if got.VXLAN.VNI != scenario.TenantVNI {
		t.Errorf("VNI = %d", got.VXLAN.VNI)
	}
	if got.IPv4.Dst != scenario.RemoteVTEP {
		t.Errorf("outer dst = %s", got.IPv4.Dst)
	}
	if got.InnerIPv4.Dst != scenario.TenantHost {
		t.Errorf("inner dst = %s", got.InnerIPv4.Dst)
	}
	if tr.Recirculations != 1 {
		t.Errorf("recirculations = %d, want 1", tr.Recirculations)
	}
}

func TestEndToEndBasicPath(t *testing.T) {
	_, _, sw := deploy(t)
	tr, err := sw.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped || len(tr.Out) != 1 {
		t.Fatalf("trace: dropped=%v(%s) path=%s", tr.Dropped, tr.DropReason, tr.Path())
	}
	if tr.Out[0].Port != scenario.PortUpstream {
		t.Errorf("out port = %d, want %d", tr.Out[0].Port, scenario.PortUpstream)
	}
	if tr.Out[0].Pkt.Eth.Dst != scenario.UpstreamMAC {
		t.Errorf("next-hop MAC = %s", tr.Out[0].Pkt.Eth.Dst)
	}
}

func TestEndToEndWirePreservation(t *testing.T) {
	// Serialize the emitted packet and re-parse: the datapath must
	// leave a well-formed packet.
	_, _, sw := deploy(t)
	tr, err := sw.Inject(scenario.PortClient, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := tr.Out[0].Pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q packet.Parsed
	if err := q.Parse(wire); err != nil {
		t.Fatalf("emitted packet does not reparse: %v", err)
	}
	if !packet.ValidChecksum(wire[packet.EthernetLen:]) {
		t.Error("emitted packet has bad IPv4 checksum")
	}
}

func TestUnknownTrafficToCPU(t *testing.T) {
	// A fresh packet arriving on a pipeline without a classifier is
	// punted.
	_, _, sw := deploy(t)
	// Port 20 is on pipeline 1 (no classifier there).
	tr, err := sw.Inject(20, scenario.InternetBound())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.CPU) != 1 {
		t.Errorf("fresh packet on classifier-less pipeline: CPU=%d dropped=%v", len(tr.CPU), tr.Dropped)
	}
}

func TestParallelCompositionTransitionsCost(t *testing.T) {
	// Recompose the scenario with FW and VGW parallel on egress 1. The
	// full path must still work but costs an extra recirculation for
	// the branch transition (§3.2).
	s := scenario.MustNew()
	s.Placement.SetMode(asic.PipeletID{Pipeline: 1, Dir: asic.Egress}, route.Parallel)
	c, err := New(s.Prof, s.Chains, s.Placement, s.NFs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	sw := asic.New(s.Prof)
	if err := d.InstallOn(sw); err != nil {
		t.Fatal(err)
	}

	// Pre-install the LB session so the chain completes.
	p := scenario.ClientTCP(443)
	ft, _ := p.FiveTuple()
	backend, _ := s.LB.SelectBackend(scenario.VIP, ft.Hash())
	s.LB.InstallSession(ft.Hash(), backend)

	tr, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped {
		t.Fatalf("dropped: %s (path %s)", tr.DropReason, tr.Path())
	}
	if len(tr.Out) != 1 || tr.Out[0].Port != scenario.PortBackends {
		t.Fatalf("out = %+v", tr.Out)
	}
	// Sequential placement needs 1 recirculation; the parallel egress
	// branch adds at least one more.
	if tr.Recirculations < 2 {
		t.Errorf("recirculations = %d, want >= 2 for parallel egress", tr.Recirculations)
	}

	// Static plan agrees with the dynamic trace.
	full := s.Chains[0]
	plan, err := route.Plan(full, s.Placement, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Recirculations != tr.Recirculations {
		t.Errorf("static plan %d recircs vs dynamic %d (plan %s, trace %s)",
			plan.Recirculations, tr.Recirculations, plan.Path(), tr.Path())
	}
}

func TestStaticPlanMatchesDynamicTraceSequential(t *testing.T) {
	s, _, sw := deploy(t)
	for _, tc := range []struct {
		name string
		pkt  func() *packet.Parsed
		path uint16
	}{
		{"medium", scenario.TenantBound, scenario.PathMedium},
		{"basic", scenario.InternetBound, scenario.PathBasic},
	} {
		tr, err := sw.Inject(scenario.PortClient, tc.pkt())
		if err != nil {
			t.Fatal(err)
		}
		var chain route.Chain
		for _, c := range s.Chains {
			if c.PathID == tc.path {
				chain = c
			}
		}
		plan, err := route.Plan(chain, s.Placement, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Recirculations != tr.Recirculations {
			t.Errorf("%s: static %d vs dynamic %d recircs", tc.name, plan.Recirculations, tr.Recirculations)
		}
	}
}

func TestMirrorFlagTranslation(t *testing.T) {
	// Wire a mirror NF into a tiny chain and verify the platform
	// mirror copy appears.
	s := scenario.MustNew()
	m := mirrorNF(t)
	s.NFs = append(s.NFs, m)
	s.Chains = append(s.Chains, route.Chain{
		PathID: 40, NFs: []string{"classifier", "mirror", "router"}, Weight: 0.1, ExitPipeline: 0,
	})
	s.Placement.Assign("mirror", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	// Route mirror-path traffic: client dst 9.9.9.9 -> path 40.
	if err := s.Classifier.AddRule(classRuleFor(packet.IP4{9, 9, 9, 9}, 40, 3)); err != nil {
		t.Fatal(err)
	}

	c, err := New(s.Prof, s.Chains, s.Placement, s.NFs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	sw := asic.New(s.Prof)
	d.InstallOn(sw)

	pkt := packet.NewTCP(packet.TCPOpts{
		SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
		Src: scenario.ClientIP, Dst: packet.IP4{9, 9, 9, 9},
		SrcPort: 5, DstPort: 6,
	})
	tr, err := sw.Inject(scenario.PortClient, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Out) != 2 {
		t.Fatalf("out = %d packets, want primary + mirror (path %s)", len(tr.Out), tr.Path())
	}
	ports := map[asic.PortID]bool{}
	for _, o := range tr.Out {
		ports[o.Port] = true
	}
	if !ports[30] {
		t.Errorf("mirror copy missing: out ports %v", ports)
	}
}

func TestBlockNamesDescriptive(t *testing.T) {
	_, c, _ := deploy(t)
	d, _ := build(c)
	for pl, b := range d.Blocks {
		if !strings.Contains(b.Name, pl.Dir.String()) {
			t.Errorf("block name %q does not mention direction %s", b.Name, pl.Dir)
		}
	}
}

func BenchmarkEndToEndFullChain(b *testing.B) {
	s := scenario.MustNew()
	c, _ := New(s.Prof, s.Chains, s.Placement, s.NFs)
	d, _ := build(c)
	sw := asic.New(s.Prof)
	d.InstallOn(sw)
	p := scenario.ClientTCP(443)
	ft, _ := p.FiveTuple()
	backend, _ := s.LB.SelectBackend(scenario.VIP, ft.Hash())
	s.LB.InstallSession(ft.Hash(), backend)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := scenario.ClientTCP(443)
		if _, err := sw.Inject(scenario.PortClient, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTelemetryCounters(t *testing.T) {
	s, c, sw := deploy(t)

	// Pre-install the LB session so the full path completes.
	p := scenario.ClientTCP(443)
	ft, _ := p.FiveTuple()
	backend, _ := s.LB.SelectBackend(scenario.VIP, ft.Hash())
	s.LB.InstallSession(ft.Hash(), backend)

	// 3 full-path, 2 medium-path, 1 basic-path packets.
	for i := 0; i < 3; i++ {
		if _, err := sw.Inject(scenario.PortClient, scenario.ClientTCP(443)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := sw.Inject(scenario.PortClient, scenario.TenantBound()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.Inject(scenario.PortClient, scenario.InternetBound()); err != nil {
		t.Fatal(err)
	}

	tel := c.Telemetry()
	if got := tel.PathPackets(scenario.PathFull); got != 3 {
		t.Errorf("full-path packets = %d, want 3", got)
	}
	if got := tel.PathPackets(scenario.PathMedium); got != 2 {
		t.Errorf("medium-path packets = %d, want 2", got)
	}
	if got := tel.PathPackets(scenario.PathBasic); got != 1 {
		t.Errorf("basic-path packets = %d, want 1", got)
	}
	// Classifier runs once per packet; router once per packet; fw only
	// on the full path; vgw on full+medium.
	if got := tel.NFExecutions("classifier"); got != 6 {
		t.Errorf("classifier executions = %d, want 6", got)
	}
	if got := tel.NFExecutions("router"); got != 6 {
		t.Errorf("router executions = %d, want 6", got)
	}
	if got := tel.NFExecutions("fw"); got != 3 {
		t.Errorf("fw executions = %d, want 3", got)
	}
	if got := tel.NFExecutions("vgw"); got != 5 {
		t.Errorf("vgw executions = %d, want 5", got)
	}
	nfs, paths := tel.Snapshot()
	if len(nfs) != 5 || len(paths) != 3 {
		t.Errorf("snapshot sizes: %d NFs, %d paths", len(nfs), len(paths))
	}
	// Sorted output.
	for i := 1; i < len(nfs); i++ {
		if nfs[i-1].Name > nfs[i].Name {
			t.Error("NF snapshot unsorted")
		}
	}
}

// TestPathCountersAcrossBlocks declares more paths than one counter
// block holds, as live reconfigurations can: every path keeps the slot
// it was first given, no two paths share one, and counts from every
// shard add up per path.
func TestPathCountersAcrossBlocks(t *testing.T) {
	tel := newTelemetry(nil, nil)
	const paths = 2*pathsPerBlock + 3
	type cell struct {
		block *atomic.Uint64
		slot  int
	}
	seen := map[cell]uint16{}
	for p := uint16(1); p <= paths; p++ {
		c := tel.pathCell(p)
		id := cell{&c.block[0], c.slot}
		if other, dup := seen[id]; dup {
			t.Fatalf("paths %d and %d share a counter", other, p)
		}
		seen[id] = p
		for shard := 0; shard < 2*counterShards; shard++ {
			for n := uint16(0); n < p; n++ {
				c.add(uint8(shard), 1)
			}
		}
	}
	for p := uint16(1); p <= paths; p++ {
		if again := tel.pathCell(p); seen[cell{&again.block[0], again.slot}] != p {
			t.Errorf("path %d was handed a different counter the second time", p)
		}
		if got, want := tel.PathPackets(p), uint64(p)*2*counterShards; got != want {
			t.Errorf("path %d counted %d packets, want %d", p, got, want)
		}
	}
}
