package p4

// Standard parser fragments for the Dejavu header stack. Offsets are
// bytes from the start of the packet; the same header type at two
// offsets (e.g. IPv4 directly after Ethernet vs. after the 20-byte SFC
// header, or inner vs. outer headers around VXLAN) yields distinct
// vertices, which is exactly the disambiguation the global ID table
// exists for.

// Byte offsets of each header in the two packet layouts (with and
// without the SFC header between Ethernet and IP).
const (
	OffEth = 0

	// Plain layout: eth / ipv4 / l4.
	OffIPv4Plain = 14
	OffL4Plain   = 34

	// SFC layout: eth / sfc / ipv4 / l4 / vxlan / inner...
	OffSFC      = 14
	OffIPv4SFC  = 34
	OffL4SFC    = 54
	OffVXLAN    = 62  // after outer UDP
	OffInnerEth = 70  // after VXLAN
	OffInnerIP  = 84  // after inner Ethernet
	OffInnerL4  = 104 // after inner IPv4
)

// Select values used on parser transitions.
const (
	selEtherIPv4 = 0x0800
	selEtherARP  = 0x0806
	selEtherSFC  = 0x894F
	selProtoTCP  = 6
	selProtoUDP  = 17
	selProtoICMP = 1
	selPortVXLAN = 4789
	selNextIPv4  = 1 // sfc.next_proto value for IPv4
)

// EthernetStart returns the common start vertex.
func EthernetStart() Vertex { return Vertex{Type: "ethernet", Offset: OffEth} }

// The standard fragments are shared and frozen (SharedParser): every
// call of an accessor below returns the same graph, and extending one
// means Cloning it.

// BasicIPv4Parser parses eth/ipv4/{tcp,udp,icmp} without an SFC header
// — the parser an NF author would write for a standalone router or
// firewall.
func BasicIPv4Parser() *ParserGraph { return basicIPv4Parser() }

var basicIPv4Parser = SharedParser(func() *ParserGraph {
	g := NewParserGraph(EthernetStart())
	eth := g.Start
	ip := Vertex{Type: "ipv4", Offset: OffIPv4Plain}
	g.MustEdge(Transition{From: eth, Select: "ethernet.ether_type", Value: selEtherIPv4, To: ip})
	g.MustEdge(Transition{From: eth, Default: true, To: Accept()})
	addL4(g, ip, OffL4Plain)
	return g
})

// SFCIPv4Parser parses eth/sfc/ipv4/{tcp,udp,icmp} — the layout NFs
// see inside the Dejavu chain, after the Classifier has pushed the SFC
// header.
func SFCIPv4Parser() *ParserGraph { return sfcIPv4Parser() }

var sfcIPv4Parser = SharedParser(func() *ParserGraph {
	g := NewParserGraph(EthernetStart())
	eth := g.Start
	sfc := Vertex{Type: "sfc", Offset: OffSFC}
	ip := Vertex{Type: "ipv4", Offset: OffIPv4SFC}
	g.MustEdge(Transition{From: eth, Select: "ethernet.ether_type", Value: selEtherSFC, To: sfc})
	g.MustEdge(Transition{From: eth, Default: true, To: Accept()})
	g.MustEdge(Transition{From: sfc, Select: "sfc.next_proto", Value: selNextIPv4, To: ip})
	g.MustEdge(Transition{From: sfc, Default: true, To: Accept()})
	addL4(g, ip, OffL4SFC)
	return g
})

// ARPParser parses eth/{arp,ipv4} — used by the router NF.
func ARPParser() *ParserGraph { return arpParser() }

var arpParser = SharedParser(func() *ParserGraph {
	g := NewParserGraph(EthernetStart())
	eth := g.Start
	arp := Vertex{Type: "arp", Offset: OffIPv4Plain}
	g.MustEdge(Transition{From: eth, Select: "ethernet.ether_type", Value: selEtherARP, To: arp})
	g.MustEdge(Transition{From: eth, Default: true, To: Accept()})
	g.MustEdge(Transition{From: arp, Default: true, To: Accept()})
	return g
})

// VXLANParser parses the full virtualization gateway stack:
// eth/sfc/ipv4/udp(4789)/vxlan/inner-eth/inner-ipv4/inner-l4.
func VXLANParser() *ParserGraph { return vxlanParser() }

var vxlanParser = SharedParser(func() *ParserGraph {
	g := SFCIPv4Parser().Clone()
	udp := Vertex{Type: "udp", Offset: OffL4SFC}
	vx := Vertex{Type: "vxlan", Offset: OffVXLAN}
	ieth := Vertex{Type: "ethernet", Offset: OffInnerEth}
	iip := Vertex{Type: "ipv4", Offset: OffInnerIP}
	itcp := Vertex{Type: "tcp", Offset: OffInnerL4}
	iudp := Vertex{Type: "udp", Offset: OffInnerL4}
	g.MustEdge(Transition{From: udp, Select: "udp.dst_port", Value: selPortVXLAN, To: vx})
	g.MustEdge(Transition{From: vx, Default: true, To: ieth})
	g.MustEdge(Transition{From: ieth, Select: "ethernet.ether_type", Value: selEtherIPv4, To: iip})
	g.MustEdge(Transition{From: ieth, Default: true, To: Accept()})
	g.MustEdge(Transition{From: iip, Select: "ipv4.protocol", Value: selProtoTCP, To: itcp})
	g.MustEdge(Transition{From: iip, Select: "ipv4.protocol", Value: selProtoUDP, To: iudp})
	g.MustEdge(Transition{From: iip, Default: true, To: Accept()})
	g.MustEdge(Transition{From: itcp, Default: true, To: Accept()})
	g.MustEdge(Transition{From: iudp, Default: true, To: Accept()})
	return g
})

// ClassifierParser is the packet-facing parser: it must understand both
// plain traffic arriving from the Internet and already-tagged SFC
// traffic (resubmitted or recirculated packets).
func ClassifierParser() *ParserGraph { return classifierParser() }

var classifierParser = SharedParser(func() *ParserGraph {
	merged, err := MergeParsers(NewGlobalIDTable(), BasicIPv4Parser(), SFCIPv4Parser())
	if err != nil {
		panic(err) // static graphs: cannot conflict
	}
	return merged
})

// addL4 attaches tcp/udp/icmp transitions under an IPv4 vertex.
func addL4(g *ParserGraph, ip Vertex, l4Off int) {
	tcp := Vertex{Type: "tcp", Offset: l4Off}
	udp := Vertex{Type: "udp", Offset: l4Off}
	icmp := Vertex{Type: "icmp", Offset: l4Off}
	g.MustEdge(Transition{From: ip, Select: "ipv4.protocol", Value: selProtoTCP, To: tcp})
	g.MustEdge(Transition{From: ip, Select: "ipv4.protocol", Value: selProtoUDP, To: udp})
	g.MustEdge(Transition{From: ip, Select: "ipv4.protocol", Value: selProtoICMP, To: icmp})
	g.MustEdge(Transition{From: ip, Default: true, To: Accept()})
	g.MustEdge(Transition{From: tcp, Default: true, To: Accept()})
	g.MustEdge(Transition{From: udp, Default: true, To: Accept()})
	g.MustEdge(Transition{From: icmp, Default: true, To: Accept()})
}
