package nf

import (
	"testing"

	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

var (
	macA = packet.MAC{0x02, 0, 0, 0, 0, 1}
	macB = packet.MAC{0x02, 0, 0, 0, 0, 2}
	ipA  = packet.IP4{198, 51, 100, 10} // internet client
	vip  = packet.IP4{203, 0, 113, 80}  // service VIP
	bk1  = packet.IP4{10, 0, 1, 1}
	bk2  = packet.IP4{10, 0, 1, 2}
)

func tcpToVIP() *packet.Parsed {
	return packet.NewTCP(packet.TCPOpts{
		SrcMAC: macA, DstMAC: macB,
		Src: ipA, Dst: vip,
		SrcPort: 33000, DstPort: 443,
	})
}

func withSFC(p *packet.Parsed, path uint16, index uint8) *packet.Parsed {
	p.PushSFC(nsh.New(path, index))
	return p
}

func TestAllBlocksValidate(t *testing.T) {
	nfs := List{
		NewClassifier(1, 2),
		NewFirewall(true),
		NewVGW(packet.IP4{172, 16, 0, 1}, macB),
		NewLoadBalancer(1024),
		NewRouter(),
		NewNAT(packet.IP4{192, 0, 2, 1}, 1024),
		NewMirror(),
	}
	for _, f := range nfs {
		cb := f.Block()
		if err := cb.Validate(); err != nil {
			t.Errorf("%s block invalid: %v", f.Name(), err)
		}
		if err := f.Parser().Validate(); err != nil {
			t.Errorf("%s parser invalid: %v", f.Name(), err)
		}
		if g := f.Parser(); g != f.Parser() || !panics(func() { g.AddVertex(p4.Vertex{Type: "vxlan", Offset: 99}) }) {
			t.Errorf("%s: Parser() is not one shared, frozen graph", f.Name())
		}
	}
	if nfs.ByName("lb") == nil || nfs.ByName("nope") != nil {
		t.Error("List.ByName broken")
	}
	if len(nfs.Names()) != 7 {
		t.Error("List.Names broken")
	}
}

// TestStdBlocksSharedAndFrozen: every NF's control block is one frozen
// value per process and per variant — two instances of an NF hand out
// the same block, and the firewall's permit and deny variants are two
// blocks — and its Clone is an ordinary block that can change without
// touching the shared one.
func TestStdBlocksSharedAndFrozen(t *testing.T) {
	fresh := []func() NF{
		func() NF { return NewClassifier(1, 2) },
		func() NF { return NewFirewall(true) },
		func() NF { return NewFirewall(false) },
		func() NF { return NewVGW(packet.IP4{172, 16, 0, 1}, macB) },
		func() NF { return NewLoadBalancer(1024) },
		func() NF { return NewRouter() },
		func() NF { return NewNAT(packet.IP4{192, 0, 2, 1}, 1024) },
		func() NF { return NewMirror() },
	}
	seen := make(map[*p4.ControlBlock]string)
	for _, mk := range fresh {
		f := mk()
		cb := f.Block()
		if !cb.Frozen() || f.Block() != cb || mk().Block() != cb {
			t.Errorf("%s: Block() is not one shared, frozen block", f.Name())
		}
		if other, dup := seen[cb]; dup {
			t.Errorf("%s: shares its block with %s", f.Name(), other)
		}
		seen[cb] = f.Name()

		text := p4.EmitControl(cb)
		c := cb.Clone()
		if c.Frozen() || p4.EmitControl(c) != text {
			t.Errorf("%s: the Clone is frozen or emits other text", f.Name())
		}
		c.Tables[0].Actions[0].Name = "changed"
		c.Tables[0].Keys = append(c.Tables[0].Keys, p4.Key{Field: "meta.class_id", Kind: p4.MatchExact})
		c.Body = append(c.Body, p4.ApplyStmt{Table: c.Tables[0].Name})
		if p4.EmitControl(cb.Clone()) != text || p4.EmitControl(c) == text {
			t.Errorf("%s: changing the Clone changed the shared block", f.Name())
		}
	}
	if len(seen) != len(fresh) {
		t.Errorf("%d blocks for %d NF variants", len(seen), len(fresh))
	}
	if NewFirewall(true).Block().Tables[0].DefaultAction != "permit" || NewFirewall(false).Block().Tables[0].DefaultAction != "deny" {
		t.Error("a firewall's block does not follow its miss behaviour")
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

func TestAllParsersMerge(t *testing.T) {
	// The generic parser must be constructible from every NF's parser
	// fragment (§3): no conflicts among the five production NFs.
	nfs := List{
		NewClassifier(1, 2),
		NewFirewall(true),
		NewVGW(packet.IP4{172, 16, 0, 1}, macB),
		NewLoadBalancer(1024),
		NewRouter(),
	}
	graphs := make([]*p4.ParserGraph, len(nfs))
	for i, f := range nfs {
		graphs[i] = f.Parser()
	}
	table := p4.NewGlobalIDTable()
	merged, err := p4.MergeParsers(table, graphs...)
	if err != nil {
		t.Fatalf("generic parser merge failed: %v", err)
	}
	if merged.ParseStates() < 10 {
		t.Errorf("merged parser suspiciously small: %d states", merged.ParseStates())
	}
	if table.Len() < merged.ParseStates() {
		t.Errorf("global ID table too small: %d < %d", table.Len(), merged.ParseStates())
	}
}

func TestExtensionNFsMergeWithProductionParsers(t *testing.T) {
	// The NFs the public API ships beyond the §5 chain's five must merge
	// cleanly into the generic parser alongside the production NFs.
	nfs := List{
		NewClassifier(1, 2),
		NewVGW(packet.IP4{172, 16, 0, 1}, macB),
		NewRouter(),
		NewNAT(packet.IP4{192, 0, 2, 1}, 1024),
		NewMirror(),
	}
	var graphs []*p4.ParserGraph
	for _, f := range nfs {
		graphs = append(graphs, f.Parser())
	}
	if _, err := p4.MergeParsers(p4.NewGlobalIDTable(), graphs...); err != nil {
		t.Fatalf("extension parsers conflict: %v", err)
	}
}

func TestClassifierRuleAndDefault(t *testing.T) {
	c := NewClassifier(30, 2) // default: green path, 2 hops
	err := c.AddRule(ClassRule{
		DstIP: vip, DstMask: packet.IP4{255, 255, 255, 255},
		Proto: packet.ProtoTCP, ProtoMask: 0xFF,
		DstPort:  443,
		Priority: 10,
		Path:     10, InitialIndex: 5, Tenant: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rules() != 1 {
		t.Errorf("Rules = %d", c.Rules())
	}

	p := tcpToVIP()
	p.SFC.Meta.InPort = 3 // framework seeds platform metadata
	c.Execute(p)
	if !p.Valid(packet.HdrSFC) {
		t.Fatal("classifier did not push SFC header")
	}
	if p.SFC.ServicePathID != 10 || p.SFC.ServiceIndex != 5 {
		t.Errorf("SFC = %s", p.SFC.String())
	}
	if p.SFC.Meta.InPort != 3 {
		t.Error("classifier lost platform metadata")
	}
	if ten, ok := p.SFC.LookupContext(nsh.KeyTenantID); !ok || ten != 77 {
		t.Errorf("tenant context = %d,%v", ten, ok)
	}

	// Non-matching packet falls to the default path.
	q := packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: packet.IP4{8, 8, 8, 8}, SrcPort: 1, DstPort: 53})
	c.Execute(q)
	if q.SFC.ServicePathID != 30 || q.SFC.ServiceIndex != 2 {
		t.Errorf("default path SFC = %s", q.SFC.String())
	}

	// Already-tagged packets pass through untouched.
	r := withSFC(tcpToVIP(), 99, 1)
	c.Execute(r)
	if r.SFC.ServicePathID != 99 {
		t.Error("classifier re-classified a tagged packet")
	}
}

func TestClassifierRejectsZeroIndex(t *testing.T) {
	c := NewClassifier(1, 1)
	if err := c.AddRule(ClassRule{Path: 5, InitialIndex: 0}); err == nil {
		t.Error("zero initial index accepted")
	}
}

func TestFirewallPermitDeny(t *testing.T) {
	fw := NewFirewall(false) // default deny
	err := fw.AddRule(ACLRule{
		DstIP: vip, DstMask: packet.IP4{255, 255, 255, 255},
		Proto: packet.ProtoTCP, ProtoMask: 0xFF,
		DstPort:  443,
		Priority: 10,
		Permit:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fw.Rules() != 1 {
		t.Errorf("Rules = %d", fw.Rules())
	}

	allowed := withSFC(tcpToVIP(), 1, 4)
	fw.Execute(allowed)
	if allowed.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("permitted flow dropped")
	}

	denied := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: vip, SrcPort: 1, DstPort: 22}), 1, 4)
	fw.Execute(denied)
	if !denied.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("unmatched flow not dropped under default-deny")
	}
}

func TestFirewallDefaultPermitAndNonIP(t *testing.T) {
	fw := NewFirewall(true)
	icmp := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: vip, SrcPort: 1, DstPort: 1}), 1, 2)
	fw.Execute(icmp)
	if icmp.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("default-permit dropped traffic")
	}

	arp := packet.NewARP(packet.ARPRequest, macA, ipA, packet.MAC{}, vip)
	arp.PushSFC(nsh.New(1, 2))
	fwDeny := NewFirewall(false)
	fwDeny.Execute(arp)
	if !arp.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("non-IP traffic not dropped under default-deny")
	}
}

func TestFirewallICMPUsesZeroPorts(t *testing.T) {
	fw := NewFirewall(false)
	fw.AddRule(ACLRule{
		Proto: packet.ProtoICMP, ProtoMask: 0xFF,
		Priority: 5, Permit: true,
	})
	p := &packet.Parsed{}
	p.Eth = packet.Ethernet{Src: macA, Dst: macB, EtherType: packet.EtherTypeIPv4}
	p.IPv4 = packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: ipA, Dst: vip}
	p.ICMP = packet.ICMP{Type: packet.ICMPEchoRequest}
	p.SetValid(packet.HdrEth | packet.HdrIPv4 | packet.HdrICMP)
	p.PushSFC(nsh.New(1, 2))
	fw.Execute(p)
	if p.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("ICMP permit rule did not match")
	}
}

func TestLoadBalancerHitMiss(t *testing.T) {
	lb := NewLoadBalancer(16)
	if err := lb.AddVIP(vip, []packet.IP4{bk1, bk2}); err != nil {
		t.Fatal(err)
	}
	if err := lb.AddVIP(vip, nil); err == nil {
		t.Error("empty backend pool accepted")
	}

	p := withSFC(tcpToVIP(), 1, 3)
	lb.Execute(p)
	if !p.SFC.Meta.Has(nsh.FlagToCPU) {
		t.Fatal("session miss did not set toCpu")
	}

	// Control plane installs the session and reinjects.
	ft, _ := p.FiveTuple()
	// The miss left dst unchanged, so the five-tuple still names the VIP.
	backend, err := lb.SelectBackend(vip, ft.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.InstallSession(ft.Hash(), backend); err != nil {
		t.Fatal(err)
	}
	if lb.Sessions() != 1 {
		t.Errorf("Sessions = %d", lb.Sessions())
	}

	q := withSFC(tcpToVIP(), 1, 3)
	lb.Execute(q)
	if q.SFC.Meta.Has(nsh.FlagToCPU) {
		t.Error("installed session still misses")
	}
	if q.IPv4.Dst != backend {
		t.Errorf("dst = %s, want %s", q.IPv4.Dst, backend)
	}

	// Non-VIP traffic passes through.
	r := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: packet.IP4{8, 8, 8, 8}, SrcPort: 9, DstPort: 53}), 1, 3)
	lb.Execute(r)
	if r.SFC.Meta.Has(nsh.FlagToCPU) || r.IPv4.Dst != (packet.IP4{8, 8, 8, 8}) {
		t.Error("non-VIP traffic was load-balanced")
	}
}

func TestLoadBalancerSelectBackendDeterministic(t *testing.T) {
	lb := NewLoadBalancer(0)
	lb.AddVIP(vip, []packet.IP4{bk1, bk2})
	b1, _ := lb.SelectBackend(vip, 1234)
	b2, _ := lb.SelectBackend(vip, 1234)
	if b1 != b2 {
		t.Error("backend selection not deterministic")
	}
	if _, err := lb.SelectBackend(packet.IP4{1, 2, 3, 4}, 1); err == nil {
		t.Error("SelectBackend for unknown VIP succeeded")
	}
	if lb.Backends(vip) == nil || lb.IsVIP(packet.IP4{9, 9, 9, 9}) {
		t.Error("VIP bookkeeping wrong")
	}
}

func TestVGWDecap(t *testing.T) {
	vtep := packet.IP4{172, 16, 0, 1}
	v := NewVGW(vtep, macB)
	if err := v.AddVNI(5001, 42); err != nil {
		t.Fatal(err)
	}
	if v.VNIs() != 1 {
		t.Errorf("VNIs = %d", v.VNIs())
	}

	p := packet.NewVXLAN(packet.VXLANOpts{
		OuterSrc: packet.IP4{172, 16, 0, 9}, OuterDst: vtep,
		VNI:      5001,
		InnerSrc: packet.IP4{10, 0, 2, 5}, InnerDst: ipA,
		InnerSrcPort: 8080, InnerDstPort: 33000,
		InnerProto: packet.ProtoTCP,
	})
	p.PushSFC(nsh.New(2, 3))
	v.Execute(p)
	if p.Valid(packet.HdrVXLAN) || p.Valid(packet.HdrInnerIPv4) {
		t.Error("decap left encapsulation headers valid")
	}
	if !p.Valid(packet.HdrTCP) || p.Valid(packet.HdrUDP) {
		t.Error("inner TCP not promoted")
	}
	if p.IPv4.Src != (packet.IP4{10, 0, 2, 5}) || p.IPv4.Dst != ipA {
		t.Errorf("promoted IPs wrong: %s -> %s", p.IPv4.Src, p.IPv4.Dst)
	}
	if p.TCP.SrcPort != 8080 {
		t.Errorf("promoted TCP port = %d", p.TCP.SrcPort)
	}
	if ten, ok := p.SFC.LookupContext(nsh.KeyTenantID); !ok || ten != 42 {
		t.Errorf("tenant context = %d,%v", ten, ok)
	}
}

func TestVGWDecapUnknownVNIDrops(t *testing.T) {
	v := NewVGW(packet.IP4{172, 16, 0, 1}, macB)
	p := packet.NewVXLAN(packet.VXLANOpts{
		OuterSrc: ipA, OuterDst: packet.IP4{172, 16, 0, 1},
		VNI:      9999,
		InnerSrc: bk1, InnerDst: ipA, InnerSrcPort: 1, InnerDstPort: 2,
	})
	p.PushSFC(nsh.New(2, 3))
	v.Execute(p)
	if !p.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("unknown VNI not dropped")
	}
}

func TestVGWEncap(t *testing.T) {
	vtep := packet.IP4{172, 16, 0, 1}
	remote := packet.IP4{172, 16, 0, 9}
	workloadMAC := packet.MAC{0x02, 0xAA, 0, 0, 0, 5}
	v := NewVGW(vtep, macB)
	v.AddEncapRoute(bk1, EncapEntry{VNI: 5001, RemoteIP: remote, NextMAC: workloadMAC})

	p := withSFC(packet.NewTCP(packet.TCPOpts{
		SrcMAC: macA, DstMAC: macB,
		Src: ipA, Dst: bk1, SrcPort: 33000, DstPort: 8080,
	}), 2, 3)
	v.Execute(p)
	if !p.Valid(packet.HdrVXLAN) || !p.Valid(packet.HdrInnerIPv4) || !p.Valid(packet.HdrInnerTCP) {
		t.Fatalf("encap did not build tunnel: %s", p.String())
	}
	if p.VXLAN.VNI != 5001 {
		t.Errorf("VNI = %d", p.VXLAN.VNI)
	}
	if p.IPv4.Src != vtep || p.IPv4.Dst != remote {
		t.Errorf("outer IPs = %s -> %s", p.IPv4.Src, p.IPv4.Dst)
	}
	if p.UDP.DstPort != packet.VXLANPort {
		t.Errorf("outer UDP dst = %d", p.UDP.DstPort)
	}
	if p.InnerIPv4.Dst != bk1 || p.InnerTCP.DstPort != 8080 {
		t.Error("inner stack corrupted")
	}
	if p.InnerEth.Dst != workloadMAC {
		t.Error("inner MAC not set")
	}
	// Wire round trip must reparse identically.
	wire, err := p.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q packet.Parsed
	if err := q.Parse(wire); err != nil {
		t.Fatal(err)
	}
	if !q.Valid(packet.HdrVXLAN | packet.HdrInnerIPv4 | packet.HdrInnerTCP) {
		t.Errorf("reparsed encap packet: %s", q.String())
	}

	// Traffic to unknown destinations passes through unencapsulated.
	r := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: packet.IP4{8, 8, 8, 8}, SrcPort: 1, DstPort: 2}), 2, 3)
	v.Execute(r)
	if r.Valid(packet.HdrVXLAN) {
		t.Error("unknown destination encapsulated")
	}
}

func TestRouterForwarding(t *testing.T) {
	r := NewRouter()
	nhMAC := packet.MAC{0x02, 0xCC, 0, 0, 0, 1}
	if err := r.AddRoute(packet.IP4{10, 0, 1, 0}, 24, NextHop{Port: 7, DstMAC: nhMAC, SrcMAC: macB}); err != nil {
		t.Fatal(err)
	}
	if r.Routes() != 1 {
		t.Errorf("Routes = %d", r.Routes())
	}

	p := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: bk1, SrcPort: 1, DstPort: 2}), 1, 1)
	ttlBefore := p.IPv4.TTL
	r.Execute(p)
	if p.Valid(packet.HdrSFC) {
		t.Error("router did not pop SFC header")
	}
	if p.SFC.Meta.OutPort != 7 {
		t.Errorf("OutPort = %d, want 7", p.SFC.Meta.OutPort)
	}
	if p.Eth.Dst != nhMAC || p.Eth.Src != macB {
		t.Error("MAC rewrite wrong")
	}
	if p.IPv4.TTL != ttlBefore-1 {
		t.Errorf("TTL = %d, want %d", p.IPv4.TTL, ttlBefore-1)
	}
}

func TestRouterEdgeCases(t *testing.T) {
	r := NewRouter()
	r.AddRoute(packet.IP4{0, 0, 0, 0}, 0, NextHop{Port: 1})

	// TTL expiry.
	p := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: bk1, SrcPort: 1, DstPort: 2}), 1, 1)
	p.IPv4.TTL = 1
	r.Execute(p)
	if !p.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("TTL=1 packet not dropped")
	}

	// ARP goes to CPU.
	a := packet.NewARP(packet.ARPRequest, macA, ipA, packet.MAC{}, bk1)
	a.PushSFC(nsh.New(1, 1))
	r.Execute(a)
	if !a.SFC.Meta.Has(nsh.FlagToCPU) {
		t.Error("ARP not punted to CPU")
	}

	// Non-IP non-ARP is dropped.
	junk := &packet.Parsed{}
	junk.Eth = packet.Ethernet{EtherType: 0x86DD}
	junk.SetValid(packet.HdrEth)
	junk.PushSFC(nsh.New(1, 1))
	r.Execute(junk)
	if !junk.SFC.Meta.Has(nsh.FlagDrop) {
		t.Error("unroutable ethertype not dropped")
	}

	// No route: punted.
	empty := NewRouter()
	q := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: bk1, SrcPort: 1, DstPort: 2}), 1, 1)
	empty.Execute(q)
	if !q.SFC.Meta.Has(nsh.FlagToCPU) {
		t.Error("route miss not punted")
	}
}

func TestNAT(t *testing.T) {
	pub := packet.IP4{192, 0, 2, 1}
	n := NewNAT(pub, 16)
	src := packet.IP4{10, 0, 5, 5}

	p := withSFC(packet.NewTCP(packet.TCPOpts{Src: src, Dst: ipA, SrcPort: 44444, DstPort: 80}), 1, 2)
	n.Execute(p)
	if !p.SFC.Meta.Has(nsh.FlagToCPU) {
		t.Fatal("unknown flow not punted")
	}

	if err := n.InstallMapping(src, 44444, packet.ProtoTCP, 61000); err != nil {
		t.Fatal(err)
	}
	if n.Mappings() != 1 {
		t.Errorf("Mappings = %d", n.Mappings())
	}
	q := withSFC(packet.NewTCP(packet.TCPOpts{Src: src, Dst: ipA, SrcPort: 44444, DstPort: 80}), 1, 2)
	n.Execute(q)
	if q.IPv4.Src != pub || q.TCP.SrcPort != 61000 {
		t.Errorf("translation wrong: %s:%d", q.IPv4.Src, q.TCP.SrcPort)
	}

	// Non-IP traffic passes.
	a := packet.NewARP(packet.ARPRequest, macA, ipA, packet.MAC{}, bk1)
	a.PushSFC(nsh.New(1, 2))
	n.Execute(a)
	if a.SFC.Meta.Has(nsh.FlagToCPU) {
		t.Error("ARP punted by NAT")
	}
}

// TestNATDeclaresTheFieldsItWrites runs Execute on a translated TCP
// flow and a translated UDP flow: every header field it changes must be
// the destination of an OpSetField in some action of the NAT's Block,
// or the dependency analysis reasons about a different NF from the one
// that runs.
func TestNATDeclaresTheFieldsItWrites(t *testing.T) {
	n := NewNAT(packet.IP4{192, 0, 2, 1}, 16)
	src := packet.IP4{10, 0, 5, 5}
	if err := n.InstallMapping(src, 44444, packet.ProtoTCP, 61000); err != nil {
		t.Fatal(err)
	}
	if err := n.InstallMapping(src, 5353, packet.ProtoUDP, 61001); err != nil {
		t.Fatal(err)
	}
	declared := make(map[p4.FieldRef]bool)
	for _, tbl := range n.Block().Tables {
		for _, a := range tbl.Actions {
			for _, op := range a.Ops {
				if op.Kind == p4.OpSetField {
					declared[op.Dst] = true
				}
			}
		}
	}
	// Header fields NAT could touch, by their P4 names.
	fields := map[p4.FieldRef]func(*packet.Parsed) any{
		"ipv4.src_addr": func(p *packet.Parsed) any { return p.IPv4.Src },
		"ipv4.dst_addr": func(p *packet.Parsed) any { return p.IPv4.Dst },
		"ipv4.protocol": func(p *packet.Parsed) any { return p.IPv4.Protocol },
		"tcp.src_port":  func(p *packet.Parsed) any { return p.TCP.SrcPort },
		"tcp.dst_port":  func(p *packet.Parsed) any { return p.TCP.DstPort },
		"udp.src_port":  func(p *packet.Parsed) any { return p.UDP.SrcPort },
		"udp.dst_port":  func(p *packet.Parsed) any { return p.UDP.DstPort },
	}
	for _, c := range []struct {
		name string
		pkt  *packet.Parsed
	}{
		{"tcp", packet.NewTCP(packet.TCPOpts{Src: src, Dst: ipA, SrcPort: 44444, DstPort: 80})},
		{"udp", packet.NewUDP(packet.UDPOpts{Src: src, Dst: ipA, SrcPort: 5353, DstPort: 53})},
	} {
		before := withSFC(c.pkt, 1, 2)
		after := before.Clone()
		n.Execute(after)
		if after.SFC.Meta.Has(nsh.FlagToCPU) {
			t.Fatalf("%s: mapped flow punted", c.name)
		}
		changed := 0
		for name, get := range fields {
			if get(before) == get(after) {
				continue
			}
			changed++
			if !declared[name] {
				t.Errorf("%s: Execute writes %s, which no NAT action declares", c.name, name)
			}
		}
		if changed == 0 {
			t.Errorf("%s: Execute changed no header field", c.name)
		}
	}
}

// TestNATMappingIsAllOrNothing: a translation whose second table write
// fails leaves nothing behind in the first — with either table as the
// one that is full.
func TestNATMappingIsAllOrNothing(t *testing.T) {
	src1, src2 := packet.IP4{10, 0, 5, 5}, packet.IP4{10, 0, 5, 6}
	for _, c := range []struct {
		name             string
		forward, reverse int // table capacities
	}{
		{"reverse table full", 0, 1},
		{"forward table full", 1, 0},
	} {
		n := NewNAT(packet.IP4{192, 0, 2, 1}, 0)
		n.sessions, n.reverseTbl = mau.NewExactTable(c.forward), mau.NewExactTable(c.reverse)
		if err := n.InstallMapping(src1, 1000, packet.ProtoTCP, 50000); err != nil {
			t.Fatalf("%s: first mapping: %v", c.name, err)
		}
		if err := n.InstallMapping(src2, 1000, packet.ProtoTCP, 50001); err == nil {
			t.Fatalf("%s: second mapping went in", c.name)
		}
		if n.sessions.Len() != 1 || n.reverseTbl.Len() != 1 {
			t.Errorf("%s: %d forward and %d reverse entries after the failed install, want 1 and 1",
				c.name, n.sessions.Len(), n.reverseTbl.Len())
		}
		p := withSFC(packet.NewTCP(packet.TCPOpts{Src: src2, Dst: ipA, SrcPort: 1000, DstPort: 80}), 1, 2)
		n.Execute(p)
		if !p.SFC.Meta.Has(nsh.FlagToCPU) || p.IPv4.Src != src2 {
			t.Errorf("%s: the flow whose install failed is translated: %s", c.name, p.IPv4.Src)
		}
		if e, ok := n.reverseTbl.Lookup([]byte{50000 >> 8, 50000 & 0xFF, packet.ProtoTCP}); !ok || e.Param(0) != uint64(src1.Uint32())<<16|1000 {
			t.Errorf("%s: the first flow's reverse entry: %+v,%v", c.name, e, ok)
		}
	}
}

func TestMirror(t *testing.T) {
	m := NewMirror()
	if err := m.AddTap(vip, packet.IP4{255, 255, 255, 255}, 30, 1); err != nil {
		t.Fatal(err)
	}
	if m.Taps() != 1 {
		t.Errorf("Taps = %d", m.Taps())
	}
	p := withSFC(tcpToVIP(), 1, 2)
	m.Execute(p)
	if !p.SFC.Meta.Has(nsh.FlagMirror) {
		t.Error("mirror flag not set")
	}
	if port, ok := p.SFC.LookupContext(KeyMirrorPort); !ok || port != 30 {
		t.Errorf("mirror port context = %d,%v", port, ok)
	}
	q := withSFC(packet.NewTCP(packet.TCPOpts{Src: ipA, Dst: packet.IP4{9, 9, 9, 9}, SrcPort: 1, DstPort: 2}), 1, 2)
	m.Execute(q)
	if q.SFC.Meta.Has(nsh.FlagMirror) {
		t.Error("unmatched traffic mirrored")
	}
}

func TestNFResourceEstimatesNonTrivial(t *testing.T) {
	// Every production NF must demand plausible, nonzero resources —
	// this is what composition packing decisions are based on (§3.2).
	nfs := List{
		NewClassifier(1, 2),
		NewFirewall(true),
		NewVGW(packet.IP4{172, 16, 0, 1}, macB),
		NewLoadBalancer(65536),
		NewRouter(),
	}
	for _, f := range nfs {
		r := mau.EstimateBlock(f.Block())
		if r.TableIDs == 0 || r.VLIWSlots == 0 {
			t.Errorf("%s: degenerate resource estimate %+v", f.Name(), r)
		}
	}
	// The LB's 64K-session table must dominate SRAM usage.
	lbRes := mau.EstimateBlock(NewLoadBalancer(65536).Block())
	fwRes := mau.EstimateBlock(NewFirewall(true).Block())
	if lbRes.SRAMBlocks <= fwRes.SRAMBlocks {
		t.Errorf("LB SRAM (%d) should exceed FW SRAM (%d)", lbRes.SRAMBlocks, fwRes.SRAMBlocks)
	}
	// The firewall's ternary ACL must demand TCAM.
	if fwRes.TCAMBlocks == 0 {
		t.Error("firewall demands no TCAM")
	}
}

func BenchmarkFirewallExecute(b *testing.B) {
	fw := NewFirewall(false)
	for i := 0; i < 128; i++ {
		fw.AddRule(ACLRule{
			DstIP: packet.IP4{10, 0, byte(i), 0}, DstMask: packet.IP4{255, 255, 255, 0},
			Priority: i, Permit: true,
		})
	}
	p := withSFC(tcpToVIP(), 1, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.SFC.Meta.Clear(nsh.FlagDrop)
		fw.Execute(p)
	}
}

func BenchmarkLBExecuteHit(b *testing.B) {
	lb := NewLoadBalancer(0)
	lb.AddVIP(vip, []packet.IP4{bk1, bk2})
	p := withSFC(tcpToVIP(), 1, 3)
	ft, _ := p.FiveTuple()
	lb.InstallSession(ft.Hash(), bk1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.IPv4.Dst = vip
		lb.Execute(p)
	}
}
