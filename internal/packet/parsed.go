package packet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strings"

	"dejavu/internal/nsh"
)

// HeaderBit identifies one header in the parsed header vector, mirroring
// P4 header validity bits.
type HeaderBit uint16

// Validity bits for every header the generic parser understands.
const (
	HdrEth HeaderBit = 1 << iota
	HdrSFC
	HdrARP
	HdrIPv4
	HdrTCP
	HdrUDP
	HdrICMP
	HdrVXLAN
	HdrInnerEth
	HdrInnerIPv4
	HdrInnerTCP
	HdrInnerUDP
)

// headerBitNames maps validity bits to display names.
var headerBitNames = []struct {
	bit  HeaderBit
	name string
}{
	{HdrEth, "eth"},
	{HdrSFC, "sfc"},
	{HdrARP, "arp"},
	{HdrIPv4, "ipv4"},
	{HdrTCP, "tcp"},
	{HdrUDP, "udp"},
	{HdrICMP, "icmp"},
	{HdrVXLAN, "vxlan"},
	{HdrInnerEth, "inner_eth"},
	{HdrInnerIPv4, "inner_ipv4"},
	{HdrInnerTCP, "inner_tcp"},
	{HdrInnerUDP, "inner_udp"},
}

// Parsed is the parsed header vector handed to NF control blocks — the
// behavioural analogue of the `hdr` argument in Dejavu's control block
// programming interface (§3.1). All supported headers live here with
// validity bits; NFs read and write fields and toggle validity (e.g.
// the virtualization gateway invalidates the VXLAN encapsulation).
type Parsed struct {
	valid HeaderBit

	Eth   Ethernet
	SFC   nsh.Header
	ARP   ARP
	IPv4  IPv4
	TCP   TCP
	UDP   UDP
	ICMP  ICMP
	VXLAN VXLAN

	InnerEth  Ethernet
	InnerIPv4 IPv4
	InnerTCP  TCP
	InnerUDP  UDP

	// Payload is the unparsed remainder of the packet. It aliases the
	// buffer passed to Parse; callers that retain the Parsed beyond the
	// lifetime of that buffer must copy it.
	Payload []byte
}

// Valid reports whether all headers in mask are valid.
func (p *Parsed) Valid(mask HeaderBit) bool { return p.valid&mask == mask }

// SetValid marks the headers in mask as valid.
func (p *Parsed) SetValid(mask HeaderBit) { p.valid |= mask }

// SetInvalid marks the headers in mask as invalid.
func (p *Parsed) SetInvalid(mask HeaderBit) { p.valid &^= mask }

// ValidMask returns the raw validity bit set.
func (p *Parsed) ValidMask() HeaderBit { return p.valid }

// Reset clears the parsed vector for reuse. The SFC struct is cleared
// with the validity mask because the framework reads it past the
// header's wire lifetime (a nonzero ServicePathID with the header
// popped means "chain already terminated"): a recycled slot that kept
// the previous packet's path would skip the chain.
func (p *Parsed) Reset() {
	p.valid = 0
	p.SFC = nsh.Header{}
	p.Payload = nil
}

// CopyFrom overwrites p with a shallow copy of src: header fields and
// validity bits are copied by value, while Payload and Options slices
// alias src. That is exactly what a template-stamping traffic
// generator wants — NFs rewrite header fields but never the payload
// bytes — and it allocates nothing. Use Clone for an independent deep
// copy.
//
//dv:hotpath
func (p *Parsed) CopyFrom(src *Parsed) { *p = *src }

// Parse decodes a full packet from data, following the generic parser
// graph: Ethernet → {ARP | SFC | IPv4} and, under IPv4,
// {TCP | UDP | ICMP} with UDP port 4789 triggering VXLAN → inner
// Ethernet → inner IPv4 → inner {TCP | UDP}. Unknown EtherTypes or IP
// protocols leave the remainder as payload rather than failing, like a
// P4 parser accepting on a default transition. When the outer IPv4
// total length covers the parsed headers and ends before the frame
// does, the payload ends with the datagram: the bytes past it are
// link-layer padding.
//
// The stacks the §5 traffic carries — Ethernet/IPv4/TCP and
// Ethernet/IPv4/UDP without options or VXLAN — are read at fixed
// offsets after one length check (getTCPStack, getUDPStack); every
// other packet takes the graph one header at a time.
func (p *Parsed) Parse(data []byte) error {
	switch recvLayout(data) {
	case layoutTCP:
		p.getTCPStack((*[tcpStackLen]byte)(data))
		p.Payload = datagram(data[EthernetLen:], data[tcpStackLen:], p.IPv4.Length)
		return nil
	case layoutUDP:
		p.getUDPStack((*[udpStackLen]byte)(data))
		p.Payload = datagram(data[EthernetLen:], data[udpStackLen:], p.IPv4.Length)
		return nil
	}
	if err := p.parseHeaders(data); err != nil || !p.Valid(HdrIPv4) {
		return err
	}
	ip := data[EthernetLen:]
	if p.Valid(HdrSFC) {
		ip = ip[nsh.HeaderLen:]
	}
	p.Payload = datagram(ip, p.Payload, p.IPv4.Length)
	return nil
}

// recvLayout is the fixed layout of a received frame: Ethernet/IPv4
// with version 4 and IHL 5, then TCP with data offset 5 or UDP to a
// port other than VXLAN's. Any other frame, or one too short for its
// layout, is perHeader.
func recvLayout(data []byte) layout {
	if len(data) < udpStackLen || binary.BigEndian.Uint16(data[12:]) != EtherTypeIPv4 || data[EthernetLen] != 0x45 {
		return perHeader
	}
	switch data[EthernetLen+9] {
	case ProtoTCP:
		if len(data) >= tcpStackLen && data[ipStackLen+12]>>4 == TCPMinLen/4 {
			return layoutTCP
		}
	case ProtoUDP:
		if binary.BigEndian.Uint16(data[ipStackLen+2:]) != VXLANPort {
			return layoutUDP
		}
	}
	return perHeader
}

// datagram ends payload, the bytes after the parsed headers, where the
// outer IPv4 datagram does. ip is the frame from that header on; length
// is its total length. A length that falls inside the headers or past
// the frame is not trusted, and payload runs to the end of the frame.
func datagram(ip, payload []byte, length uint16) []byte {
	hdrs := len(ip) - len(payload)
	if n := int(length); n >= hdrs && n < len(ip) {
		return payload[:n-hdrs]
	}
	return payload
}

// Header-stack lengths of the fixed layouts, payload excluded.
const (
	ipStackLen  = EthernetLen + IPv4MinLen
	tcpStackLen = ipStackLen + TCPMinLen // Ethernet/IPv4/TCP
	udpStackLen = ipStackLen + UDPLen    // Ethernet/IPv4/UDP
	vxlanLen    = udpStackLen + VXLANLen // Ethernet/IPv4/UDP/VXLAN, before the inner stack
)

// getTCPStack resets p and reads an Ethernet/IPv4/TCP stack without
// options from its fixed offsets.
//
//dv:hotpath
func (p *Parsed) getTCPStack(b *[tcpStackLen]byte) {
	p.valid = HdrEth | HdrIPv4 | HdrTCP
	p.SFC = nsh.Header{}
	p.Eth.get((*[EthernetLen]byte)(b[0:]))
	h := (*[IPv4MinLen]byte)(b[EthernetLen:])
	p.IPv4.getHead(h)
	p.IPv4.getTail(h)
	p.IPv4.Options = p.IPv4.Options[:0]
	p.TCP.get((*[TCPMinLen]byte)(b[ipStackLen:]))
	p.TCP.Options = p.TCP.Options[:0]
}

// getUDPStack resets p and reads an Ethernet/IPv4/UDP stack without
// options from its fixed offsets.
//
//dv:hotpath
func (p *Parsed) getUDPStack(b *[udpStackLen]byte) {
	p.valid = HdrEth | HdrIPv4 | HdrUDP
	p.SFC = nsh.Header{}
	p.Eth.get((*[EthernetLen]byte)(b[0:]))
	h := (*[IPv4MinLen]byte)(b[EthernetLen:])
	p.IPv4.getHead(h)
	p.IPv4.getTail(h)
	p.IPv4.Options = p.IPv4.Options[:0]
	p.UDP.get((*[UDPLen]byte)(b[ipStackLen:]))
}

// parseHeaders is Parse one header at a time, each header's length
// checked on its own: the path for every stack the fixed layouts do
// not cover.
func (p *Parsed) parseHeaders(data []byte) error {
	p.Reset()
	if err := p.Eth.DecodeFromBytes(data); err != nil {
		return fmt.Errorf("ethernet: %w", err)
	}
	p.SetValid(HdrEth)
	rest := data[EthernetLen:]
	etherType := p.Eth.EtherType

	if etherType == EtherTypeSFC {
		if err := p.SFC.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("sfc: %w", err)
		}
		p.SetValid(HdrSFC)
		rest = rest[nsh.HeaderLen:]
		switch p.SFC.NextProto {
		case nsh.ProtoIPv4:
			etherType = EtherTypeIPv4
		case nsh.ProtoEthernet:
			etherType = EtherTypeVLAN // unsupported: treat as payload
		default:
			p.Payload = rest
			return nil
		}
	}

	switch etherType {
	case EtherTypeARP:
		if err := p.ARP.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("arp: %w", err)
		}
		p.SetValid(HdrARP)
		p.Payload = rest[ARPLen:]
		return nil
	case EtherTypeIPv4:
		if err := p.IPv4.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("ipv4: %w", err)
		}
		p.SetValid(HdrIPv4)
		rest = rest[p.IPv4.HeaderLen():]
		return p.parseL4(rest)
	default:
		p.Payload = rest
		return nil
	}
}

// parseL4 continues parsing below the outer IPv4 header.
func (p *Parsed) parseL4(rest []byte) error {
	switch p.IPv4.Protocol {
	case ProtoTCP:
		if err := p.TCP.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("tcp: %w", err)
		}
		p.SetValid(HdrTCP)
		p.Payload = rest[p.TCP.HeaderLen():]
	case ProtoUDP:
		if err := p.UDP.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("udp: %w", err)
		}
		p.SetValid(HdrUDP)
		rest = rest[UDPLen:]
		if p.UDP.DstPort == VXLANPort {
			return p.parseVXLAN(rest)
		}
		p.Payload = rest
	case ProtoICMP:
		if err := p.ICMP.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("icmp: %w", err)
		}
		p.SetValid(HdrICMP)
		p.Payload = rest[ICMPLen:]
	default:
		p.Payload = rest
	}
	return nil
}

// parseVXLAN parses a VXLAN encapsulation and one level of inner
// headers.
func (p *Parsed) parseVXLAN(rest []byte) error {
	if err := p.VXLAN.DecodeFromBytes(rest); err != nil {
		return fmt.Errorf("vxlan: %w", err)
	}
	p.SetValid(HdrVXLAN)
	rest = rest[VXLANLen:]
	if err := p.InnerEth.DecodeFromBytes(rest); err != nil {
		return fmt.Errorf("inner ethernet: %w", err)
	}
	p.SetValid(HdrInnerEth)
	rest = rest[EthernetLen:]
	if p.InnerEth.EtherType != EtherTypeIPv4 {
		p.Payload = rest
		return nil
	}
	if err := p.InnerIPv4.DecodeFromBytes(rest); err != nil {
		return fmt.Errorf("inner ipv4: %w", err)
	}
	p.SetValid(HdrInnerIPv4)
	rest = rest[p.InnerIPv4.HeaderLen():]
	switch p.InnerIPv4.Protocol {
	case ProtoTCP:
		if err := p.InnerTCP.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("inner tcp: %w", err)
		}
		p.SetValid(HdrInnerTCP)
		p.Payload = rest[p.InnerTCP.HeaderLen():]
	case ProtoUDP:
		if err := p.InnerUDP.DecodeFromBytes(rest); err != nil {
			return fmt.Errorf("inner udp: %w", err)
		}
		p.SetValid(HdrInnerUDP)
		p.Payload = rest[UDPLen:]
	default:
		p.Payload = rest
	}
	return nil
}

// allHeaders is every validity bit.
const allHeaders = HdrInnerUDP<<1 - 1

// wireFixed[mask] is the serialized length of the headers in a
// validity mask without their options: a 4 KiB table (the headers sum
// to at most 188 bytes) that WireLen indexes instead of testing twelve
// bits, as a deparser knows each header's width at compile time.
var wireFixed = func() (t [allHeaders + 1]uint8) {
	fixed := []struct {
		bit HeaderBit
		n   uint8
	}{
		{HdrEth, EthernetLen}, {HdrSFC, nsh.HeaderLen}, {HdrARP, ARPLen},
		{HdrIPv4, IPv4MinLen}, {HdrTCP, TCPMinLen}, {HdrUDP, UDPLen},
		{HdrICMP, ICMPLen}, {HdrVXLAN, VXLANLen}, {HdrInnerEth, EthernetLen},
		{HdrInnerIPv4, IPv4MinLen}, {HdrInnerTCP, TCPMinLen}, {HdrInnerUDP, UDPLen},
	}
	for mask := range t {
		for _, h := range fixed {
			if HeaderBit(mask)&h.bit != 0 {
				t[mask] += h.n
			}
		}
	}
	return t
}()

// WireLen returns the total serialized packet length for the current
// validity bits and payload: the valid headers' fixed lengths, their
// options (IPv4 and TCP, outer and inner) and the payload.
func (p *Parsed) WireLen() int {
	v := p.valid
	n := int(wireFixed[v&allHeaders]) + len(p.Payload)
	if v&HdrIPv4 != 0 {
		n += len(p.IPv4.Options)
	}
	if v&HdrTCP != 0 {
		n += len(p.TCP.Options)
	}
	if v&HdrInnerIPv4 != 0 {
		n += len(p.InnerIPv4.Options)
	}
	if v&HdrInnerTCP != 0 {
		n += len(p.InnerTCP.Options)
	}
	return n
}

// Serialize appends the packet's wire representation to b and returns
// the extended slice — the behavioural analogue of the generic
// deparser. It fixes up chaining fields (EtherType/NextProto when the
// SFC header is valid, IP protocol numbers, IP and UDP total lengths)
// and recomputes the IPv4 header checksums, so NFs may toggle header
// validity without maintaining those invariants themselves.
//
// The stacks the §5 traffic emits — Ethernet/IPv4/TCP, Ethernet/IPv4/UDP
// and Ethernet/IPv4/TCP inside a VXLAN encapsulation, all without
// options — are written at fixed offsets (putTCPStack, putUDPStack,
// putVXLAN); every other validity mask is written one header at a time.
func (p *Parsed) Serialize(b []byte) ([]byte, error) {
	p.fixup()
	start := len(b)
	n := p.WireLen()
	if cap(b)-start < n {
		nb := make([]byte, start, start+n)
		copy(nb, b)
		b = nb
	}
	b = b[:start+n]
	out := b[start:]
	var off int
	switch p.emitLayout() {
	case layoutTCP:
		off = tcpStackLen
		putTCPStack((*[tcpStackLen]byte)(out), &p.Eth, &p.IPv4, &p.TCP)
	case layoutUDP:
		off = udpStackLen
		putUDPStack((*[udpStackLen]byte)(out), &p.Eth, &p.IPv4, &p.UDP)
	case layoutVXLANTCP:
		off = vxlanLen + tcpStackLen
		p.putVXLAN((*[vxlanLen]byte)(out))
		putTCPStack((*[tcpStackLen]byte)(out[vxlanLen:]), &p.InnerEth, &p.InnerIPv4, &p.InnerTCP)
	default:
		var err error
		if off, err = p.serializeHeaders(out); err != nil {
			return nil, err
		}
	}
	copy(out[off:], p.Payload)
	return b, nil
}

// layout names a header stack written at fixed offsets.
type layout uint8

const (
	perHeader layout = iota // no fixed layout: one header at a time
	layoutTCP
	layoutUDP
	layoutVXLANTCP
)

// emitLayout is the fixed layout of p's validity mask, or perHeader
// when it has none or a header on it carries options.
func (p *Parsed) emitLayout() layout {
	const vxTCP = HdrEth | HdrIPv4 | HdrUDP | HdrVXLAN | HdrInnerEth | HdrInnerIPv4 | HdrInnerTCP
	if len(p.IPv4.Options) != 0 {
		return perHeader
	}
	switch p.valid {
	case HdrEth | HdrIPv4 | HdrTCP:
		if len(p.TCP.Options) == 0 {
			return layoutTCP
		}
	case HdrEth | HdrIPv4 | HdrUDP:
		return layoutUDP
	case vxTCP:
		if len(p.InnerIPv4.Options)|len(p.InnerTCP.Options) == 0 {
			return layoutVXLANTCP
		}
	}
	return perHeader
}

// putTCPStack writes an Ethernet/IPv4/TCP stack without options at its
// fixed offsets.
//
//dv:hotpath
func putTCPStack(b *[tcpStackLen]byte, eth *Ethernet, ip *IPv4, tcp *TCP) {
	eth.put((*[EthernetLen]byte)(b[0:]))
	h := (*[IPv4MinLen]byte)(b[EthernetLen:])
	ip.seal(h, ip.putHead(h, IPv4MinLen/4)+ip.putTail(h))
	tcp.put((*[TCPMinLen]byte)(b[ipStackLen:]), TCPMinLen/4)
}

// putUDPStack writes an Ethernet/IPv4/UDP stack without options at its
// fixed offsets.
//
//dv:hotpath
func putUDPStack(b *[udpStackLen]byte, eth *Ethernet, ip *IPv4, udp *UDP) {
	eth.put((*[EthernetLen]byte)(b[0:]))
	h := (*[IPv4MinLen]byte)(b[EthernetLen:])
	ip.seal(h, ip.putHead(h, IPv4MinLen/4)+ip.putTail(h))
	udp.put((*[UDPLen]byte)(b[ipStackLen:]))
}

// putVXLAN writes the outer Ethernet/IPv4/UDP stack and the VXLAN
// header of an encapsulation without options at their fixed offsets.
//
//dv:hotpath
func (p *Parsed) putVXLAN(b *[vxlanLen]byte) {
	putUDPStack((*[udpStackLen]byte)(b[0:]), &p.Eth, &p.IPv4, &p.UDP)
	p.VXLAN.put((*[VXLANLen]byte)(b[udpStackLen:]))
}

// serializeHeaders writes p's valid headers one at a time, in wire
// order, and returns the bytes written: the path for every validity
// mask the fixed layouts do not cover. Each header's SerializeTo is
// called directly: through an interface the calls could not be inlined
// or devirtualized.
func (p *Parsed) serializeHeaders(out []byte) (int, error) {
	off, m := 0, 0
	var err error
	if p.Valid(HdrEth) {
		if m, err = p.Eth.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrSFC) {
		if m, err = p.SFC.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrARP) {
		if m, err = p.ARP.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrIPv4) {
		if m, err = p.IPv4.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrTCP) {
		if m, err = p.TCP.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrUDP) {
		if m, err = p.UDP.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrICMP) {
		if m, err = p.ICMP.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrVXLAN) {
		if m, err = p.VXLAN.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrInnerEth) {
		if m, err = p.InnerEth.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrInnerIPv4) {
		if m, err = p.InnerIPv4.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrInnerTCP) {
		if m, err = p.InnerTCP.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	if p.Valid(HdrInnerUDP) {
		if m, err = p.InnerUDP.SerializeTo(out[off:]); err != nil {
			return 0, err
		}
		off += m
	}
	return off, nil
}

// fixup repairs chaining fields and lengths before serialization.
func (p *Parsed) fixup() {
	// Inner stack first so outer lengths see final inner sizes.
	if p.Valid(HdrInnerIPv4) {
		innerL4 := 0
		switch {
		case p.Valid(HdrInnerTCP):
			p.InnerIPv4.Protocol = ProtoTCP
			innerL4 = p.InnerTCP.HeaderLen()
		case p.Valid(HdrInnerUDP):
			p.InnerIPv4.Protocol = ProtoUDP
			innerL4 = UDPLen
			p.InnerUDP.Length = uint16(UDPLen + len(p.Payload))
		}
		p.InnerIPv4.Length = uint16(p.InnerIPv4.HeaderLen() + innerL4 + len(p.Payload))
	}
	if p.Valid(HdrInnerEth) && p.Valid(HdrInnerIPv4) {
		p.InnerEth.EtherType = EtherTypeIPv4
	}

	if p.Valid(HdrIPv4) {
		after := 0
		switch {
		case p.Valid(HdrTCP):
			p.IPv4.Protocol = ProtoTCP
			after = p.TCP.HeaderLen() + len(p.Payload)
		case p.Valid(HdrUDP):
			p.IPv4.Protocol = ProtoUDP
			after = UDPLen
			if p.Valid(HdrVXLAN) {
				after += VXLANLen
				if p.Valid(HdrInnerEth) {
					after += EthernetLen
				}
				if p.Valid(HdrInnerIPv4) {
					after += int(p.InnerIPv4.Length)
				} else {
					after += len(p.Payload)
				}
			} else {
				after += len(p.Payload)
			}
			p.UDP.Length = uint16(after)
		case p.Valid(HdrICMP):
			p.IPv4.Protocol = ProtoICMP
			after = ICMPLen + len(p.Payload)
		default:
			after = len(p.Payload)
		}
		p.IPv4.Length = uint16(p.IPv4.HeaderLen() + after)
	}

	// Ethernet / SFC chaining.
	switch {
	case p.Valid(HdrSFC):
		p.Eth.EtherType = EtherTypeSFC
		switch {
		case p.Valid(HdrIPv4):
			p.SFC.NextProto = nsh.ProtoIPv4
		default:
			p.SFC.NextProto = nsh.ProtoNone
		}
	case p.Valid(HdrARP):
		p.Eth.EtherType = EtherTypeARP
	case p.Valid(HdrIPv4):
		p.Eth.EtherType = EtherTypeIPv4
	}
}

// FiveTuple is the canonical flow key used by the L4 load balancer.
type FiveTuple struct {
	Src, Dst IP4
	Proto    uint8
	SrcPort  uint16
	DstPort  uint16
}

// FiveTuple extracts the flow key from the outer headers. ok is false
// when the packet has no IPv4+TCP/UDP stack.
func (p *Parsed) FiveTuple() (ft FiveTuple, ok bool) {
	if !p.Valid(HdrIPv4) {
		return ft, false
	}
	ft.Src = p.IPv4.Src
	ft.Dst = p.IPv4.Dst
	ft.Proto = p.IPv4.Protocol
	switch {
	case p.Valid(HdrTCP):
		ft.SrcPort = p.TCP.SrcPort
		ft.DstPort = p.TCP.DstPort
	case p.Valid(HdrUDP):
		ft.SrcPort = p.UDP.SrcPort
		ft.DstPort = p.UDP.DstPort
	default:
		return ft, false
	}
	return ft, true
}

// FlowWords is the outer flow key in word form — the 13 wire bytes
// source, destination, protocol, source port, destination port (ports
// big-endian) packed little-endian into two words, k0 holding the
// addresses and k1 the rest — read straight from the header fields.
// It is the key FiveTuple returns, in the form the ternary tables
// (mau.TernaryTable.LookupWords) and FlowHash take, without a 13-byte
// copy on the stack that the next read would have to wait for. When
// IPv4 is valid but neither TCP nor UDP is, the words carry zero ports
// and ok is false; without IPv4 they are zero.
//
//dv:hotpath
func (p *Parsed) FlowWords() (k0, k1 uint64, ok bool) {
	if !p.Valid(HdrIPv4) {
		return 0, 0, false
	}
	var sport, dport uint16
	switch {
	case p.Valid(HdrTCP):
		sport, dport, ok = p.TCP.SrcPort, p.TCP.DstPort, true
	case p.Valid(HdrUDP):
		sport, dport, ok = p.UDP.SrcPort, p.UDP.DstPort, true
	}
	k0, k1 = p.IPv4.FlowWords(sport, dport)
	return k0, k1, ok
}

// FlowWords is the word-form flow key (Parsed.FlowWords) of this
// header's addresses and protocol with the given ports: the VXLAN
// encap reads the inner stack's key through it.
//
//dv:hotpath
func (h *IPv4) FlowWords(sport, dport uint16) (k0, k1 uint64) {
	return flowWords(binary.LittleEndian.Uint32(h.Src[:]), binary.LittleEndian.Uint32(h.Dst[:]), h.Protocol, sport, dport)
}

// Words returns the tuple's word-form flow key (Parsed.FlowWords).
func (ft FiveTuple) Words() (k0, k1 uint64) {
	return flowWords(binary.LittleEndian.Uint32(ft.Src[:]), binary.LittleEndian.Uint32(ft.Dst[:]), ft.Proto, ft.SrcPort, ft.DstPort)
}

// flowWords packs the key; src and dst are the addresses' wire bytes
// read little-endian.
func flowWords(src, dst uint32, proto uint8, sport, dport uint16) (k0, k1 uint64) {
	k0 = uint64(src) | uint64(dst)<<32
	k1 = uint64(proto) | uint64(bits.ReverseBytes16(sport))<<8 | uint64(bits.ReverseBytes16(dport))<<24
	return k0, k1
}

// Hash returns the tuple's FlowHash.
//
//dv:hotpath
func (ft FiveTuple) Hash() uint32 { return FlowHash(ft.Words()) }

// FlowHash returns the CRC-32 (IEEE) of a word-form flow key's 13 wire
// bytes, matching the sessionHash computation in the paper's LB example
// (Fig. 4): the key folded as three words — source, destination, then
// protocol with the ports' first three bytes (k1's low half) — and the
// last port byte. It does not call crc32.ChecksumIEEE: that goes
// through an architecture-dispatch function variable, which makes a key
// on the caller's stack escape to the heap — one allocation per packet.
//
//dv:hotpath
func FlowHash(k0, k1 uint64) uint32 {
	crc := crcWord(^uint32(0), uint32(k0))
	crc = crcWord(crc, uint32(k0>>32))
	crc = crcWord(crc, uint32(k1))
	return ^(crcSlice[0][byte(crc)^byte(k1>>32)] ^ crc>>8)
}

// crcSlice are the slicing-by-4 tables of the reflected IEEE
// polynomial: crcSlice[k][b] is the CRC state after byte b and k zero
// bytes, so four table reads advance the state over a whole word.
var crcSlice = func() (t [4][256]uint32) {
	t[0] = *crc32.IEEETable
	for k := 1; k < len(t); k++ {
		for b, v := range t[k-1] {
			t[k][b] = t[0][byte(v)] ^ v>>8
		}
	}
	return t
}()

// crcWord folds four message bytes, little-endian in w, into crc.
func crcWord(crc, w uint32) uint32 {
	crc ^= w
	return crcSlice[3][byte(crc)] ^ crcSlice[2][byte(crc>>8)] ^ crcSlice[1][byte(crc>>16)] ^ crcSlice[0][crc>>24]
}

// String lists the valid headers and key addressing fields.
func (p *Parsed) String() string {
	var parts []string
	for _, hn := range headerBitNames {
		if p.Valid(hn.bit) {
			parts = append(parts, hn.name)
		}
	}
	s := "pkt[" + strings.Join(parts, ",") + "]"
	if p.Valid(HdrIPv4) {
		s += fmt.Sprintf(" %s->%s", p.IPv4.Src, p.IPv4.Dst)
	}
	if p.Valid(HdrSFC) {
		s += " " + p.SFC.String()
	}
	return s
}
