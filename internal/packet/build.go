package packet

import "dejavu/internal/nsh"

// Convenience constructors used by the traffic generator, the packet
// test framework and the examples. They return ready-to-serialize
// Parsed vectors with sensible defaults (TTL 64, checksums recomputed
// on serialize).

// TCPOpts parameterizes NewTCP.
type TCPOpts struct {
	SrcMAC, DstMAC   MAC
	Src, Dst         IP4
	SrcPort, DstPort uint16
	Flags            uint8
	Payload          []byte
}

// NewTCP builds an Ethernet/IPv4/TCP packet.
func NewTCP(o TCPOpts) *Parsed {
	p := &Parsed{}
	p.Eth = Ethernet{Dst: o.DstMAC, Src: o.SrcMAC, EtherType: EtherTypeIPv4}
	p.IPv4 = IPv4{TTL: 64, Protocol: ProtoTCP, Src: o.Src, Dst: o.Dst}
	flags := o.Flags
	if flags == 0 {
		flags = TCPAck
	}
	p.TCP = TCP{SrcPort: o.SrcPort, DstPort: o.DstPort, Flags: flags, Window: 65535}
	p.Payload = o.Payload
	p.SetValid(HdrEth | HdrIPv4 | HdrTCP)
	return p
}

// UDPOpts parameterizes NewUDP.
type UDPOpts struct {
	SrcMAC, DstMAC   MAC
	Src, Dst         IP4
	SrcPort, DstPort uint16
	Payload          []byte
}

// NewUDP builds an Ethernet/IPv4/UDP packet.
func NewUDP(o UDPOpts) *Parsed {
	p := &Parsed{}
	p.Eth = Ethernet{Dst: o.DstMAC, Src: o.SrcMAC, EtherType: EtherTypeIPv4}
	p.IPv4 = IPv4{TTL: 64, Protocol: ProtoUDP, Src: o.Src, Dst: o.Dst}
	p.UDP = UDP{SrcPort: o.SrcPort, DstPort: o.DstPort}
	p.Payload = o.Payload
	p.SetValid(HdrEth | HdrIPv4 | HdrUDP)
	return p
}

// VXLANOpts parameterizes NewVXLAN.
type VXLANOpts struct {
	OuterSrcMAC, OuterDstMAC MAC
	OuterSrc, OuterDst       IP4
	VNI                      uint32
	InnerSrcMAC, InnerDstMAC MAC
	InnerSrc, InnerDst       IP4
	InnerSrcPort             uint16
	InnerDstPort             uint16
	InnerProto               uint8 // ProtoTCP or ProtoUDP
	Payload                  []byte
}

// NewVXLAN builds a VXLAN-encapsulated packet with an inner
// Ethernet/IPv4/L4 stack, as produced by tenant hypervisors in the edge
// cloud scenario.
func NewVXLAN(o VXLANOpts) *Parsed {
	p := &Parsed{}
	p.Eth = Ethernet{Dst: o.OuterDstMAC, Src: o.OuterSrcMAC, EtherType: EtherTypeIPv4}
	p.IPv4 = IPv4{TTL: 64, Protocol: ProtoUDP, Src: o.OuterSrc, Dst: o.OuterDst}
	p.UDP = UDP{SrcPort: 0xC000, DstPort: VXLANPort}
	p.VXLAN = VXLAN{VNIValid: true, VNI: o.VNI}
	p.InnerEth = Ethernet{Dst: o.InnerDstMAC, Src: o.InnerSrcMAC, EtherType: EtherTypeIPv4}
	p.InnerIPv4 = IPv4{TTL: 64, Src: o.InnerSrc, Dst: o.InnerDst}
	p.SetValid(HdrEth | HdrIPv4 | HdrUDP | HdrVXLAN | HdrInnerEth | HdrInnerIPv4)
	switch o.InnerProto {
	case ProtoUDP:
		p.InnerIPv4.Protocol = ProtoUDP
		p.InnerUDP = UDP{SrcPort: o.InnerSrcPort, DstPort: o.InnerDstPort}
		p.SetValid(HdrInnerUDP)
	default:
		p.InnerIPv4.Protocol = ProtoTCP
		p.InnerTCP = TCP{SrcPort: o.InnerSrcPort, DstPort: o.InnerDstPort, Flags: TCPAck, Window: 65535}
		p.SetValid(HdrInnerTCP)
	}
	p.Payload = o.Payload
	return p
}

// NewARP builds an Ethernet/ARP request or reply.
func NewARP(op uint16, srcMAC MAC, srcIP IP4, dstMAC MAC, dstIP IP4) *Parsed {
	p := &Parsed{}
	ethDst := dstMAC
	if op == ARPRequest {
		ethDst = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	}
	p.Eth = Ethernet{Dst: ethDst, Src: srcMAC, EtherType: EtherTypeARP}
	p.ARP = ARP{Op: op, SenderMAC: srcMAC, SenderIP: srcIP, TargetMAC: dstMAC, TargetIP: dstIP}
	p.SetValid(HdrEth | HdrARP)
	return p
}

// PushSFC inserts a Dejavu SFC header between the Ethernet and IP
// headers, as the Classifier module does (§3).
func (p *Parsed) PushSFC(h nsh.Header) {
	p.SFC = h
	p.SetValid(HdrSFC)
}

// PopSFC removes the SFC header, as the Router module does before the
// packet leaves the switch (§3).
func (p *Parsed) PopSFC() {
	p.SetInvalid(HdrSFC)
}

// Clone returns a deep copy of the parsed vector, including payload and
// option slices, so the copy can be mutated independently.
func (p *Parsed) Clone() *Parsed {
	c := new(Parsed)
	p.CloneInto(c)
	return c
}

// CloneInto overwrites dst with a deep copy of p, for callers that own
// the memory the copy lives in. Nothing of dst's previous content is kept.
func (p *Parsed) CloneInto(dst *Parsed) { p.CloneIntoArena(dst, nil, 0) }

// CloneIntoArena is CloneInto with the copy's payload and option bytes
// appended to arena, which it returns: a burst of copies costs one
// allocation for their bytes instead of one each (the switch's CPU queue
// copies a burst of punts into one chunk and one arena). When arena has
// no room for p's bytes a fresh one is made, sized for more further
// packets like p as well; what was carved from the old one stays valid.
func (p *Parsed) CloneIntoArena(dst *Parsed, arena []byte, more int) []byte {
	*dst = *p
	need := len(p.Payload) + len(p.IPv4.Options) + len(p.TCP.Options) + len(p.InnerIPv4.Options) + len(p.InnerTCP.Options)
	if need > cap(arena)-len(arena) {
		arena = make([]byte, 0, need*(more+1))
	}
	arena, dst.Payload = carve(arena, p.Payload)
	arena, dst.IPv4.Options = carve(arena, p.IPv4.Options)
	arena, dst.TCP.Options = carve(arena, p.TCP.Options)
	arena, dst.InnerIPv4.Options = carve(arena, p.InnerIPv4.Options)
	arena, dst.InnerTCP.Options = carve(arena, p.InnerTCP.Options)
	return arena
}

// carve appends a copy of b to arena and returns both; the copy's
// capacity ends where it does, so appending to it never reaches a
// neighbour's bytes.
func carve(arena, b []byte) (grown, cp []byte) {
	if len(b) == 0 {
		return arena, nil
	}
	n := len(arena)
	arena = append(arena, b...)
	return arena, arena[n:len(arena):len(arena)]
}
