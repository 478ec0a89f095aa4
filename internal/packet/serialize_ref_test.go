package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dejavu/internal/nsh"
)

// The deparser Serialize's fixed layouts sit beside, kept as the
// reference: every header written through one interface-typed call by
// an encoder written byte by byte, sharing no field code with the
// package's kernels, and the IPv4 checksum summed over the serialized
// bytes.

// refIPv4 serializes an IPv4 header the way IPv4.SerializeTo did.
type refIPv4 struct{ *IPv4 }

func (r refIPv4) SerializeTo(b []byte) (int, error) {
	ip := r.IPv4
	hdrLen := ip.HeaderLen()
	if len(ip.Options)%4 != 0 || len(ip.Options) > 40 {
		return 0, &OptionsError{"IPv4", len(ip.Options)}
	}
	if len(b) < hdrLen {
		return 0, ErrShortBuf
	}
	ihl := uint8(hdrLen / 4)
	b[0] = 4<<4 | ihl
	b[1] = ip.TOS
	put16(b[2:4], ip.Length)
	put16(b[4:6], ip.ID)
	put16(b[6:8], uint16(ip.Flags&0x7)<<13|ip.FragOff&0x1FFF)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	copy(b[20:hdrLen], ip.Options)
	cs := Checksum(b[:hdrLen])
	put16(b[10:12], cs)
	ip.Checksum = cs
	ip.Version = 4
	ip.IHL = ihl
	return hdrLen, nil
}

type refEthernet struct{ *Ethernet }

func (r refEthernet) SerializeTo(b []byte) (int, error) {
	if len(b) < EthernetLen {
		return 0, ErrShortBuf
	}
	copy(b[0:6], r.Dst[:])
	copy(b[6:12], r.Src[:])
	put16(b[12:14], r.EtherType)
	return EthernetLen, nil
}

type refTCP struct{ *TCP }

func (r refTCP) SerializeTo(b []byte) (int, error) {
	t := r.TCP
	hdrLen := t.HeaderLen()
	if len(t.Options)%4 != 0 || len(t.Options) > 40 {
		return 0, &OptionsError{"TCP", len(t.Options)}
	}
	if len(b) < hdrLen {
		return 0, ErrShortBuf
	}
	put16(b[0:2], t.SrcPort)
	put16(b[2:4], t.DstPort)
	put32(b[4:8], t.Seq)
	put32(b[8:12], t.Ack)
	off := uint8(hdrLen / 4)
	b[12] = off << 4
	b[13] = t.Flags & 0x3F
	put16(b[14:16], t.Window)
	put16(b[16:18], t.Checksum)
	put16(b[18:20], t.Urgent)
	copy(b[20:hdrLen], t.Options)
	t.DataOff = off
	return hdrLen, nil
}

type refUDP struct{ *UDP }

func (r refUDP) SerializeTo(b []byte) (int, error) {
	if len(b) < UDPLen {
		return 0, ErrShortBuf
	}
	put16(b[0:2], r.SrcPort)
	put16(b[2:4], r.DstPort)
	put16(b[4:6], r.Length)
	put16(b[6:8], r.Checksum)
	return UDPLen, nil
}

type refICMP struct{ *ICMP }

func (r refICMP) SerializeTo(b []byte) (int, error) {
	if len(b) < ICMPLen {
		return 0, ErrShortBuf
	}
	b[0] = r.Type
	b[1] = r.Code
	put16(b[2:4], r.Checksum)
	put16(b[4:6], r.ID)
	put16(b[6:8], r.Seq)
	return ICMPLen, nil
}

type refVXLAN struct{ *VXLAN }

func (r refVXLAN) SerializeTo(b []byte) (int, error) {
	if len(b) < VXLANLen {
		return 0, ErrShortBuf
	}
	b[0] = 0
	if r.VNIValid {
		b[0] = vxlanFlagVNI
	}
	b[1], b[2], b[3] = 0, 0, 0
	put32(b[4:8], r.VNI&0xFFFFFF<<8)
	return VXLANLen, nil
}

type refARP struct{ *ARP }

func (r refARP) SerializeTo(b []byte) (int, error) {
	if len(b) < ARPLen {
		return 0, ErrShortBuf
	}
	put16(b[0:2], 1)
	put16(b[2:4], EtherTypeIPv4)
	b[4], b[5] = 6, 4
	put16(b[6:8], r.Op)
	copy(b[8:14], r.SenderMAC[:])
	copy(b[14:18], r.SenderIP[:])
	copy(b[18:24], r.TargetMAC[:])
	copy(b[24:28], r.TargetIP[:])
	return ARPLen, nil
}

// refWireLen is the branchy WireLen the length table replaced: one
// test per validity bit.
func refWireLen(p *Parsed) int {
	n := 0
	if p.Valid(HdrEth) {
		n += EthernetLen
	}
	if p.Valid(HdrSFC) {
		n += nsh.HeaderLen
	}
	if p.Valid(HdrARP) {
		n += ARPLen
	}
	if p.Valid(HdrIPv4) {
		n += p.IPv4.HeaderLen()
	}
	if p.Valid(HdrTCP) {
		n += p.TCP.HeaderLen()
	}
	if p.Valid(HdrUDP) {
		n += UDPLen
	}
	if p.Valid(HdrICMP) {
		n += ICMPLen
	}
	if p.Valid(HdrVXLAN) {
		n += VXLANLen
	}
	if p.Valid(HdrInnerEth) {
		n += EthernetLen
	}
	if p.Valid(HdrInnerIPv4) {
		n += p.InnerIPv4.HeaderLen()
	}
	if p.Valid(HdrInnerTCP) {
		n += p.InnerTCP.HeaderLen()
	}
	if p.Valid(HdrInnerUDP) {
		n += UDPLen
	}
	return n + len(p.Payload)
}

// refHeader is one header the reference deparser writes.
type refHeader struct {
	bit HeaderBit
	hdr interface {
		SerializeTo([]byte) (int, error)
	}
}

// refHeaders lists p's headers in wire order.
func refHeaders(p *Parsed) []refHeader {
	return []refHeader{
		{HdrEth, refEthernet{&p.Eth}}, {HdrSFC, &p.SFC}, {HdrARP, refARP{&p.ARP}}, {HdrIPv4, refIPv4{&p.IPv4}},
		{HdrTCP, refTCP{&p.TCP}}, {HdrUDP, refUDP{&p.UDP}}, {HdrICMP, refICMP{&p.ICMP}}, {HdrVXLAN, refVXLAN{&p.VXLAN}},
		{HdrInnerEth, refEthernet{&p.InnerEth}}, {HdrInnerIPv4, refIPv4{&p.InnerIPv4}},
		{HdrInnerTCP, refTCP{&p.InnerTCP}}, {HdrInnerUDP, refUDP{&p.InnerUDP}},
	}
}

func refSerialize(p *Parsed, b []byte) ([]byte, error) {
	p.fixup()
	start := len(b)
	n := refWireLen(p)
	if cap(b)-start < n {
		nb := make([]byte, start, start+n)
		copy(nb, b)
		b = nb
	}
	b = b[:start+n]
	out := b[start:]
	off := 0
	for _, h := range refHeaders(p) {
		if !p.Valid(h.bit) {
			continue
		}
		m, err := h.hdr.SerializeTo(out[off:])
		if err != nil {
			return nil, err
		}
		off += m
	}
	copy(out[off:], p.Payload)
	return b, nil
}

func randomIPv4(rng *rand.Rand, options int) IPv4 {
	ip := IPv4{
		Version: uint8(rng.Intn(16)), IHL: uint8(rng.Intn(16)), TOS: uint8(rng.Intn(256)), Length: uint16(rng.Intn(1 << 16)), ID: uint16(rng.Intn(1 << 16)),
		Flags: uint8(rng.Intn(8)), FragOff: uint16(rng.Intn(1 << 13)), TTL: uint8(rng.Intn(256)),
		Protocol: uint8(rng.Intn(256)), Checksum: uint16(rng.Intn(1 << 16)),
		Options: make([]byte, options),
	}
	rng.Read(ip.Src[:])
	rng.Read(ip.Dst[:])
	rng.Read(ip.Options)
	if rng.Intn(8) == 0 {
		// All-ones words: the carries a field-wise sum must fold.
		ip.TOS, ip.Length, ip.ID, ip.Flags, ip.FragOff, ip.TTL, ip.Protocol = 0xFF, 0xFFFF, 0xFFFF, 7, 0x1FFF, 0xFF, 0xFF
		ip.Src, ip.Dst = IP4{255, 255, 255, 255}, IP4{255, 255, 255, 255}
	}
	return ip
}

// TestIPv4FieldwiseChecksum: the checksum summed from the struct fields
// is the one Checksum computes over the serialized bytes — without
// options, where the fields are the whole header, and with them, where
// SerializeTo still sums the bytes.
func TestIPv4FieldwiseChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		ip := randomIPv4(rng, 4*[]int{0, 0, 0, 1, 2, 10}[rng.Intn(6)])
		ref := ip
		got, want := make([]byte, ip.HeaderLen()), make([]byte, ip.HeaderLen())
		if _, err := ip.SerializeTo(got); err != nil {
			t.Fatal(err)
		}
		if _, err := (refIPv4{&ref}).SerializeTo(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || ip.Checksum != ref.Checksum || ip.IHL != ref.IHL || ip.Version != ref.Version {
			t.Fatalf("header %d (%d option bytes):\n got  %x (checksum %#x)\n want %x (checksum %#x)", i, len(ip.Options), got, ip.Checksum, want, ref.Checksum)
		}
		if !ValidChecksum(got) {
			t.Fatalf("header %d: ValidChecksum(%x) = false", i, got)
		}
	}
}

// TestSerializeMatchesReference builds every header stack the generic
// parser accepts — each checked by parsing it back to the same validity
// mask — with random fields, IPv4 and TCP options and payloads, and
// requires Serialize to write what the reference deparser writes and to
// leave the packet as the reference leaves it: the fields Serialize
// writes back (IPv4 Checksum, Version and IHL, TCP DataOff) and those
// fixup sets (IP and UDP lengths, protocols, EtherTypes) included. Both
// of Serialize's paths must run: every fixed layout and the per-header
// path.
func TestSerializeMatchesReference(t *testing.T) {
	masks := parserStacks()
	rng := rand.New(rand.NewSource(2))
	options := func() []byte {
		o := make([]byte, 4*[]int{0, 0, 1, 3}[rng.Intn(4)])
		rng.Read(o)
		return o
	}
	paths := map[layout]int{}
	for _, mask := range masks {
		for i := 0; i < 200; i++ {
			p := &Parsed{valid: mask, Payload: make([]byte, rng.Intn(64))}
			rng.Read(p.Payload)
			rng.Read(p.Eth.Dst[:])
			rng.Read(p.Eth.Src[:])
			p.Eth.EtherType = 0x88B5 // local experimental: no parser branch
			p.SFC = nsh.New(uint16(1+rng.Intn(1000)), uint8(1+rng.Intn(8)))
			p.SFC.SetContext(nsh.KeyTenantID, uint16(rng.Intn(1<<16)))
			p.ARP = ARP{Op: ARPReply, SenderIP: IP4{10, 0, 0, 1}, TargetIP: IP4{10, 0, 0, 2}}
			p.IPv4, p.InnerIPv4 = randomIPv4(rng, 0), randomIPv4(rng, 0)
			p.IPv4.Options, p.InnerIPv4.Options = options(), options()
			// Unparsed protocols and ports, unless a valid header says otherwise.
			p.IPv4.Protocol, p.InnerIPv4.Protocol, p.InnerEth.EtherType = 253, 253, 0x88B5
			p.TCP = TCP{SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)), Seq: rng.Uint32(), Flags: TCPAck, DataOff: 15, Options: options()}
			p.InnerTCP = TCP{SrcPort: uint16(rng.Intn(1 << 16)), Ack: rng.Uint32(), Flags: TCPSyn, Options: options()}
			p.UDP = UDP{SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 53, Length: 7}
			if mask&HdrVXLAN != 0 {
				p.UDP.DstPort = VXLANPort
			}
			p.InnerUDP = UDP{SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16))}
			p.ICMP = ICMP{Type: 8, ID: uint16(rng.Intn(1 << 16)), Seq: uint16(i)}
			p.VXLAN = VXLAN{VNIValid: true, VNI: uint32(rng.Intn(1 << 24))}
			paths[p.emitLayout()]++

			prefix := []byte{0xAA, 0xBB} // Serialize appends
			gotPkt, wantPkt := p.Clone(), p.Clone()
			got, err := gotPkt.Serialize(prefix)
			if err != nil {
				t.Fatalf("mask %#x: %v", mask, err)
			}
			want, err := refSerialize(wantPkt, prefix)
			if err != nil {
				t.Fatalf("mask %#x: reference: %v", mask, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("mask %#x packet %d:\n got  %x\n want %x", mask, i, got, want)
			}
			if !reflect.DeepEqual(gotPkt, wantPkt) {
				t.Fatalf("mask %#x packet %d: Serialize left\n %+v\nthe reference\n %+v", mask, i, gotPkt, wantPkt)
			}
			var back Parsed
			if err := back.Parse(got[len(prefix):]); err != nil || back.ValidMask() != mask {
				t.Fatalf("mask %#x packet %d parses back as %#x, %v: not a stack the generic parser accepts", mask, i, back.ValidMask(), err)
			}
			if mask&HdrIPv4 != 0 {
				off := len(prefix) + EthernetLen
				if mask&HdrSFC != 0 {
					off += nsh.HeaderLen
				}
				if !ValidChecksum(got[off:]) {
					t.Fatalf("mask %#x packet %d: IPv4 header checksum invalid in %x", mask, i, got[off:])
				}
			}
		}
	}
	for l := perHeader; l <= layoutVXLANTCP; l++ {
		if paths[l] == 0 {
			t.Errorf("no packet serialized through layout %d (packets per layout: %v)", l, paths)
		}
	}
}

// parserStacks lists every header stack the generic parser accepts.
func parserStacks() []HeaderBit {
	const outer = HdrEth | HdrIPv4
	const vx = outer | HdrUDP | HdrVXLAN | HdrInnerEth
	masks := []HeaderBit{
		HdrEth, HdrEth | HdrARP, HdrEth | HdrSFC,
		outer, outer | HdrTCP, outer | HdrUDP, outer | HdrICMP,
		vx, vx | HdrInnerIPv4, vx | HdrInnerIPv4 | HdrInnerTCP, vx | HdrInnerIPv4 | HdrInnerUDP,
	}
	for _, m := range masks[3:] {
		masks = append(masks, m|HdrSFC)
	}
	return masks
}

// parseable reports whether p's validity mask is a stack the generic
// parser accepts, and if so fills the fields the parser branches on that
// Serialize does not write: a well-formed SFC header and the VXLAN port
// and flag.
func parseable(p *Parsed) bool {
	if !slices.Contains(parserStacks(), p.ValidMask()) {
		return false
	}
	p.SFC = nsh.New(1, 1)
	p.UDP.DstPort, p.VXLAN = 53, VXLAN{}
	if p.Valid(HdrVXLAN) {
		p.UDP.DstPort, p.VXLAN = VXLANPort, VXLAN{VNIValid: true, VNI: 5001}
	}
	return true
}

// TestSerializeRefusesOptionsPastTheLengthField: outer and inner IPv4
// and TCP headers serialize with every option length from 0 to 40 bytes
// in steps of 4 and parse back to the same header lengths; 44 option
// bytes, which a 4-bit length field cannot describe, and lengths that
// are not a multiple of 4 are refused with an OptionsError naming the
// header. A TCP header with 44 option bytes serialized with data offset
// 0 and then failed to parse.
func TestSerializeRefusesOptionsPastTheLengthField(t *testing.T) {
	const outer = HdrEth | HdrIPv4 | HdrTCP
	const inner = HdrEth | HdrIPv4 | HdrUDP | HdrVXLAN | HdrInnerEth | HdrInnerIPv4 | HdrInnerTCP
	for _, tc := range []struct {
		name   string
		mask   HeaderBit
		header string
		at     int // option lengths (ip, tcp, innerIP, innerTCP) index
	}{
		{"outer IPv4", outer, "IPv4", 0}, {"outer TCP", outer, "TCP", 1},
		{"inner IPv4", inner, "IPv4", 2}, {"inner TCP", inner, "TCP", 3},
	} {
		for n := 0; n <= 48; n++ {
			opts := [4]int{}
			opts[tc.at] = n
			p := wireLenPacket(tc.mask, opts[0], opts[1], opts[2], opts[3], 16)
			if !parseable(p) {
				t.Fatalf("%s: mask %#x is not a stack the parser accepts", tc.name, tc.mask)
			}
			out, err := p.Clone().Serialize(nil)
			if n%4 != 0 || n > 40 {
				var oe *OptionsError
				if !errors.As(err, &oe) || oe.Header != tc.header || oe.Len != n {
					t.Errorf("%s with %d option bytes: Serialize error %v, want an OptionsError for %s, %d bytes", tc.name, n, err, tc.header, n)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s with %d option bytes: %v", tc.name, n, err)
			}
			var back Parsed
			if err := back.Parse(out); err != nil || back.ValidMask() != tc.mask {
				t.Fatalf("%s with %d option bytes parses back as %#x, %v", tc.name, n, back.ValidMask(), err)
			}
			got := [4]int{back.IPv4.HeaderLen(), back.TCP.HeaderLen(), back.InnerIPv4.HeaderLen(), back.InnerTCP.HeaderLen()}
			want := [4]int{p.IPv4.HeaderLen(), p.TCP.HeaderLen(), p.InnerIPv4.HeaderLen(), p.InnerTCP.HeaderLen()}
			if got != want || !bytes.Equal(back.Payload, p.Payload) {
				t.Fatalf("%s with %d option bytes: header lengths %v parse back as %v", tc.name, n, want, got)
			}
		}
	}
}

// wireLenPacket is a header vector with the given validity bits, option
// lengths on the four headers that carry options (outer and inner IPv4
// and TCP) and payload length.
func wireLenPacket(mask HeaderBit, ip, tcp, innerIP, innerTCP, payload int) *Parsed {
	return &Parsed{
		valid:     mask,
		IPv4:      IPv4{Options: make([]byte, ip)},
		TCP:       TCP{Options: make([]byte, tcp)},
		InnerIPv4: IPv4{Options: make([]byte, innerIP)},
		InnerTCP:  TCP{Options: make([]byte, innerTCP)},
		Payload:   make([]byte, payload),
	}
}

// TestWireLenMatchesReference: the length table agrees with the branchy
// sum it replaced on every validity mask, with options of 0, 4 and 40
// bytes on each option-carrying header (valid or not) and payloads of
// 0, 1 and 1500 bytes.
func TestWireLenMatchesReference(t *testing.T) {
	opts := []int{0, 4, 40}
	for mask := HeaderBit(0); mask <= allHeaders; mask++ {
		for _, ip := range opts {
			for _, tcp := range opts {
				for _, innerIP := range opts {
					for _, innerTCP := range opts {
						p := wireLenPacket(mask, ip, tcp, innerIP, innerTCP, 0)
						for _, payload := range []int{0, 1, 1500} {
							p.Payload = make([]byte, payload)
							if got, want := p.WireLen(), refWireLen(p); got != want {
								t.Fatalf("mask %#x options %d/%d/%d/%d payload %d: WireLen %d, reference %d",
									mask, ip, tcp, innerIP, innerTCP, payload, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzWireLen: over any validity mask (bits past the last header
// included), option and payload lengths, WireLen is the reference sum,
// and whenever Serialize succeeds it is the length Serialize returns and
// the number of bytes the headers' serializers write plus the payload;
// and a stack the parser accepts parses back with the same validity mask
// and header lengths.
func FuzzWireLen(f *testing.F) {
	f.Add(uint16(HdrEth|HdrIPv4|HdrTCP), uint8(0), uint8(0), uint8(0), uint8(0), uint16(64))
	f.Add(uint16(HdrEth|HdrSFC|HdrIPv4|HdrUDP|HdrVXLAN|HdrInnerEth|HdrInnerIPv4|HdrInnerTCP), uint8(4), uint8(12), uint8(40), uint8(8), uint16(1500))
	f.Add(uint16(0xFFFF), uint8(3), uint8(41), uint8(0), uint8(255), uint16(1))
	f.Add(uint16(HdrEth|HdrIPv4|HdrTCP), uint8(40), uint8(44), uint8(0), uint8(0), uint16(64))
	f.Fuzz(func(t *testing.T, mask uint16, ip, tcp, innerIP, innerTCP uint8, payload uint16) {
		p := wireLenPacket(HeaderBit(mask), int(ip), int(tcp), int(innerIP), int(innerTCP), int(payload%2048))
		stack := parseable(p)
		n := p.WireLen()
		if want := refWireLen(p); n != want {
			t.Fatalf("mask %#x: WireLen %d, reference %d", mask, n, want)
		}
		out, err := p.Clone().Serialize(nil)
		if err != nil {
			return
		}
		written := len(p.Payload)
		var scratch [IPv4MinLen + 255]byte // the widest header: 255 option bytes
		for _, h := range refHeaders(p) {
			if p.Valid(h.bit) {
				m, err := h.hdr.SerializeTo(scratch[:])
				if err != nil {
					t.Fatalf("mask %#x: Serialize succeeded, %T.SerializeTo failed: %v", mask, h.hdr, err)
				}
				written += m
			}
		}
		if len(out) != n || written != n {
			t.Fatalf("mask %#x: WireLen %d, Serialize returned %d bytes, headers and payload write %d", mask, n, len(out), written)
		}
		if !stack {
			return
		}
		var back Parsed
		if err := back.Parse(out); err != nil || back.ValidMask() != p.ValidMask() || back.WireLen() != n {
			t.Fatalf("mask %#x: serialized %d bytes parse back as %#x (%d bytes), %v", mask, n, back.ValidMask(), back.WireLen(), err)
		}
	})
}
