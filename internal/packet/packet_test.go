package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"dejavu/internal/nsh"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0xAA}
	macB = MAC{0x02, 0, 0, 0, 0, 0xBB}
	ipA  = IP4{10, 0, 0, 1}
	ipB  = IP4{10, 0, 0, 2}
)

func TestMACString(t *testing.T) {
	if got := macA.String(); got != "02:00:00:00:00:aa" {
		t.Errorf("MAC.String() = %q", got)
	}
	if !(MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}).IsBroadcast() {
		t.Error("broadcast MAC not detected")
	}
	if macA.IsBroadcast() {
		t.Error("unicast MAC reported broadcast")
	}
	if !(MAC{0x01, 0, 0x5E, 0, 0, 1}).IsMulticast() {
		t.Error("multicast MAC not detected")
	}
}

func TestIP4Conversions(t *testing.T) {
	a := IP4{192, 168, 1, 200}
	if a.String() != "192.168.1.200" {
		t.Errorf("IP4.String() = %q", a.String())
	}
	if IP4FromUint32(a.Uint32()) != a {
		t.Error("IP4 <-> uint32 round trip failed")
	}
	f := func(v uint32) bool { return IP4FromUint32(v).Uint32() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: macB, Src: macA, EtherType: EtherTypeIPv4}
	var buf [EthernetLen]byte
	if _, err := e.SerializeTo(buf[:]); err != nil {
		t.Fatal(err)
	}
	var got Ethernet
	if err := got.DecodeFromBytes(buf[:]); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip: got %+v want %+v", got, e)
	}
	if err := got.DecodeFromBytes(buf[:10]); err != ErrTruncated {
		t.Errorf("truncated decode = %v, want ErrTruncated", err)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := IPv4{
		TOS: 0x10, Length: 60, ID: 0x1234,
		Flags: IPv4DontFragment, FragOff: 0,
		TTL: 63, Protocol: ProtoTCP, Src: ipA, Dst: ipB,
	}
	var buf [IPv4MinLen]byte
	n, err := ip.SerializeTo(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if n != IPv4MinLen {
		t.Fatalf("serialized %d bytes, want %d", n, IPv4MinLen)
	}
	if !ValidChecksum(buf[:]) {
		t.Error("serialized header fails checksum validation")
	}
	var got IPv4
	if err := got.DecodeFromBytes(buf[:]); err != nil {
		t.Fatal(err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.TTL != 63 ||
		got.Protocol != ProtoTCP || got.Flags != IPv4DontFragment ||
		got.Length != 60 || got.ID != 0x1234 || got.TOS != 0x10 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// Corrupt a byte: checksum must fail.
	buf[8] ^= 0xFF
	if ValidChecksum(buf[:]) {
		t.Error("corrupted header passes checksum validation")
	}
}

func TestIPv4Options(t *testing.T) {
	ip := IPv4{TTL: 1, Protocol: ProtoUDP, Options: []byte{1, 1, 1, 1}}
	buf := make([]byte, ip.HeaderLen())
	if _, err := ip.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var got IPv4
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got.IHL != 6 || !bytes.Equal(got.Options, []byte{1, 1, 1, 1}) {
		t.Errorf("options round trip: IHL=%d options=%v", got.IHL, got.Options)
	}
	bad := IPv4{Options: []byte{1, 2, 3}}
	if _, err := bad.SerializeTo(make([]byte, 64)); err == nil {
		t.Error("misaligned options serialized without error")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{
		SrcPort: 443, DstPort: 51000, Seq: 0xDEADBEEF, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 29200, Urgent: 0,
		Options: []byte{2, 4, 5, 0xB4},
	}
	buf := make([]byte, tc.HeaderLen())
	if _, err := tc.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var got TCP
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 443 || got.DstPort != 51000 || got.Seq != 0xDEADBEEF ||
		got.Flags != TCPSyn|TCPAck || got.DataOff != 6 ||
		!bytes.Equal(got.Options, []byte{2, 4, 5, 0xB4}) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUDPICMPARPVXLANRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 53, DstPort: 5353, Length: 100, Checksum: 0xABCD}
	var ub [UDPLen]byte
	u.SerializeTo(ub[:])
	var gu UDP
	gu.DecodeFromBytes(ub[:])
	if gu != u {
		t.Errorf("UDP round trip: %+v != %+v", gu, u)
	}

	ic := ICMP{Type: ICMPEchoRequest, Code: 0, ID: 7, Seq: 9}
	var ib [ICMPLen]byte
	ic.SerializeTo(ib[:])
	var gi ICMP
	gi.DecodeFromBytes(ib[:])
	if gi != ic {
		t.Errorf("ICMP round trip: %+v != %+v", gi, ic)
	}

	a := ARP{Op: ARPReply, SenderMAC: macA, SenderIP: ipA, TargetMAC: macB, TargetIP: ipB}
	var ab [ARPLen]byte
	a.SerializeTo(ab[:])
	var ga ARP
	if err := ga.DecodeFromBytes(ab[:]); err != nil {
		t.Fatal(err)
	}
	if ga != a {
		t.Errorf("ARP round trip: %+v != %+v", ga, a)
	}

	v := VXLAN{VNIValid: true, VNI: 0xABCDEF}
	var vb [VXLANLen]byte
	v.SerializeTo(vb[:])
	var gv VXLAN
	gv.DecodeFromBytes(vb[:])
	if gv != v {
		t.Errorf("VXLAN round trip: %+v != %+v", gv, v)
	}
}

func TestVXLANVNIMask(t *testing.T) {
	v := VXLAN{VNIValid: true, VNI: 0xFF_FFFFFF} // more than 24 bits
	var b [VXLANLen]byte
	v.SerializeTo(b[:])
	var got VXLAN
	got.DecodeFromBytes(b[:])
	if got.VNI != 0xFFFFFF {
		t.Errorf("VNI = %x, want 24-bit truncation ffffff", got.VNI)
	}
}

func TestParseSerializeTCP(t *testing.T) {
	p := NewTCP(TCPOpts{
		SrcMAC: macA, DstMAC: macB,
		Src: ipA, Dst: ipB,
		SrcPort: 1234, DstPort: 80,
		Payload: []byte("hello"),
	})
	wire, err := p.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != EthernetLen+IPv4MinLen+TCPMinLen+5 {
		t.Fatalf("wire length = %d", len(wire))
	}
	var q Parsed
	if err := q.Parse(wire); err != nil {
		t.Fatal(err)
	}
	if !q.Valid(HdrEth | HdrIPv4 | HdrTCP) {
		t.Fatalf("validity bits = %b", q.ValidMask())
	}
	if q.Valid(HdrUDP) || q.Valid(HdrSFC) {
		t.Error("spurious validity bits set")
	}
	if q.IPv4.Src != ipA || q.TCP.DstPort != 80 || string(q.Payload) != "hello" {
		t.Errorf("parse mismatch: %s payload=%q", q.String(), q.Payload)
	}
	if q.IPv4.Length != uint16(IPv4MinLen+TCPMinLen+5) {
		t.Errorf("IPv4.Length = %d", q.IPv4.Length)
	}
	if !ValidChecksum(wire[EthernetLen:]) {
		t.Error("serialized IPv4 checksum invalid")
	}
}

func TestParseSerializeVXLAN(t *testing.T) {
	p := NewVXLAN(VXLANOpts{
		OuterSrcMAC: macA, OuterDstMAC: macB,
		OuterSrc: IP4{172, 16, 0, 1}, OuterDst: IP4{172, 16, 0, 2},
		VNI:         5001,
		InnerSrcMAC: macB, InnerDstMAC: macA,
		InnerSrc: ipA, InnerDst: ipB,
		InnerSrcPort: 3333, InnerDstPort: 8080,
		InnerProto: ProtoTCP,
		Payload:    []byte{1, 2, 3},
	})
	wire, err := p.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q Parsed
	if err := q.Parse(wire); err != nil {
		t.Fatal(err)
	}
	want := HdrEth | HdrIPv4 | HdrUDP | HdrVXLAN | HdrInnerEth | HdrInnerIPv4 | HdrInnerTCP
	if !q.Valid(want) {
		t.Fatalf("validity bits = %b, want %b", q.ValidMask(), want)
	}
	if q.VXLAN.VNI != 5001 || q.InnerTCP.DstPort != 8080 || q.InnerIPv4.Dst != ipB {
		t.Errorf("inner parse mismatch: %s", q.String())
	}
	if q.UDP.DstPort != VXLANPort {
		t.Errorf("outer UDP dst = %d", q.UDP.DstPort)
	}
	// Outer IPv4 length must cover the whole encapsulation.
	wantLen := uint16(len(wire) - EthernetLen)
	if q.IPv4.Length != wantLen {
		t.Errorf("outer IPv4.Length = %d, want %d", q.IPv4.Length, wantLen)
	}
	if string(q.Payload) != string([]byte{1, 2, 3}) {
		t.Errorf("payload = %v", q.Payload)
	}
}

func TestParseSerializeSFC(t *testing.T) {
	p := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2})
	sfcHdrBefore := p.Valid(HdrSFC)
	if sfcHdrBefore {
		t.Fatal("fresh packet already has SFC header")
	}
	p.PushSFC(nsh.New(7, 3))
	wire, err := p.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q Parsed
	if err := q.Parse(wire); err != nil {
		t.Fatal(err)
	}
	if !q.Valid(HdrSFC | HdrIPv4 | HdrTCP) {
		t.Fatalf("validity bits = %b", q.ValidMask())
	}
	if q.Eth.EtherType != EtherTypeSFC {
		t.Errorf("EtherType = %#x, want SFC", q.Eth.EtherType)
	}
	if q.SFC.ServicePathID != 7 || q.SFC.ServiceIndex != 3 {
		t.Errorf("SFC header mismatch: %s", q.SFC.String())
	}
	// Pop and re-serialize: EtherType must revert to IPv4.
	q.PopSFC()
	wire2, err := q.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var r Parsed
	if err := r.Parse(wire2); err != nil {
		t.Fatal(err)
	}
	if r.Valid(HdrSFC) {
		t.Error("SFC header survived PopSFC")
	}
	if r.Eth.EtherType != EtherTypeIPv4 {
		t.Errorf("EtherType after pop = %#x", r.Eth.EtherType)
	}
	if len(wire2) != len(wire)-20 {
		t.Errorf("pop did not shrink packet: %d vs %d", len(wire2), len(wire))
	}
}

func TestParseARP(t *testing.T) {
	p := NewARP(ARPRequest, macA, ipA, MAC{}, ipB)
	wire, err := p.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q Parsed
	if err := q.Parse(wire); err != nil {
		t.Fatal(err)
	}
	if !q.Valid(HdrARP) || q.ARP.Op != ARPRequest || q.ARP.TargetIP != ipB {
		t.Errorf("ARP parse mismatch: %+v", q.ARP)
	}
	if !q.Eth.Dst.IsBroadcast() {
		t.Error("ARP request not broadcast")
	}
}

func TestParseUnknownEtherType(t *testing.T) {
	e := Ethernet{Dst: macB, Src: macA, EtherType: 0x86DD} // IPv6: unparsed
	buf := make([]byte, EthernetLen+4)
	e.SerializeTo(buf)
	copy(buf[EthernetLen:], []byte{9, 9, 9, 9})
	var q Parsed
	if err := q.Parse(buf); err != nil {
		t.Fatal(err)
	}
	if q.ValidMask() != HdrEth {
		t.Errorf("validity = %b, want only eth", q.ValidMask())
	}
	if !bytes.Equal(q.Payload, []byte{9, 9, 9, 9}) {
		t.Errorf("payload = %v", q.Payload)
	}
}

func TestParseTruncated(t *testing.T) {
	p := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2})
	wire, _ := p.Serialize(nil)
	var q Parsed
	for _, n := range []int{0, 5, EthernetLen + 3, EthernetLen + IPv4MinLen + 2} {
		if err := q.Parse(wire[:n]); err == nil {
			t.Errorf("Parse(%d bytes) succeeded, want error", n)
		}
	}
}

func TestFiveTuple(t *testing.T) {
	p := NewTCP(TCPOpts{Src: ipA, Dst: ipB, SrcPort: 100, DstPort: 200})
	ft, ok := p.FiveTuple()
	if !ok {
		t.Fatal("FiveTuple not available")
	}
	want := FiveTuple{Src: ipA, Dst: ipB, Proto: ProtoTCP, SrcPort: 100, DstPort: 200}
	if ft != want {
		t.Errorf("FiveTuple = %+v, want %+v", ft, want)
	}

	u := NewUDP(UDPOpts{Src: ipA, Dst: ipB, SrcPort: 7, DstPort: 8})
	uft, ok := u.FiveTuple()
	if !ok || uft.Proto != ProtoUDP || uft.SrcPort != 7 {
		t.Errorf("UDP FiveTuple = %+v ok=%v", uft, ok)
	}

	a := NewARP(ARPRequest, macA, ipA, MAC{}, ipB)
	if _, ok := a.FiveTuple(); ok {
		t.Error("ARP packet produced a five-tuple")
	}
}

func TestFiveTupleHashStability(t *testing.T) {
	ft := FiveTuple{Src: ipA, Dst: ipB, Proto: ProtoTCP, SrcPort: 100, DstPort: 200}
	h1, h2 := ft.Hash(), ft.Hash()
	if h1 != h2 {
		t.Error("hash not deterministic")
	}
	ft2 := ft
	ft2.SrcPort = 101
	if ft.Hash() == ft2.Hash() {
		t.Error("hash collision on adjacent ports (suspicious)")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewTCP(TCPOpts{Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: []byte{1, 2}})
	c := p.Clone()
	c.IPv4.Dst = IP4{9, 9, 9, 9}
	c.Payload[0] = 0xFF
	if p.IPv4.Dst != ipB || p.Payload[0] != 1 {
		t.Error("Clone shares state with original")
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, a, b uint32, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := NewTCP(TCPOpts{
			SrcMAC: macA, DstMAC: macB,
			Src: IP4FromUint32(a), Dst: IP4FromUint32(b),
			SrcPort: srcPort, DstPort: dstPort,
			Payload: payload,
		})
		wire, err := p.Serialize(nil)
		if err != nil {
			return false
		}
		var q Parsed
		if err := q.Parse(wire); err != nil {
			return false
		}
		wire2, err := q.Serialize(nil)
		if err != nil {
			return false
		}
		return bytes.Equal(wire, wire2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumRFC1071Vector(t *testing.T) {
	// Classic example from RFC 1071 §3.
	data := []byte{0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7}
	if got := Checksum(data); got != ^uint16(0xDDF2) {
		t.Errorf("Checksum = %#x, want %#x", got, ^uint16(0xDDF2))
	}
}

func TestPseudoHeaderChecksum(t *testing.T) {
	seg := make([]byte, UDPLen+4)
	u := UDP{SrcPort: 1, DstPort: 2, Length: uint16(len(seg))}
	u.SerializeTo(seg)
	copy(seg[UDPLen:], "abcd")
	cs := PseudoHeaderChecksum(ipA, ipB, ProtoUDP, seg)
	if cs == 0 {
		t.Error("UDP checksum of 0 must be mapped to 0xFFFF")
	}
	// Filling in the checksum and re-summing must verify (sum == 0).
	put16(seg[6:8], cs)
	if got := PseudoHeaderChecksum(ipA, ipB, ProtoUDP, seg); got != 0 && got != 0xFFFF {
		t.Errorf("verification sum = %#x, want 0", got)
	}
}

func BenchmarkParseTCP(b *testing.B) {
	p := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: make([]byte, 64)})
	wire, _ := p.Serialize(nil)
	var q Parsed
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseUDP(b *testing.B) {
	p := NewUDP(UDPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: make([]byte, 64)})
	wire, _ := p.Serialize(nil)
	var q Parsed
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseVXLAN(b *testing.B) {
	p := NewVXLAN(VXLANOpts{OuterSrc: ipA, OuterDst: ipB, VNI: 1, InnerSrc: ipA, InnerDst: ipB, InnerSrcPort: 1, InnerDstPort: 2})
	wire, _ := p.Serialize(nil)
	var q Parsed
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeTCP(b *testing.B) {
	p := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: make([]byte, 64)})
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Serialize(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeUDP(b *testing.B) {
	p := NewUDP(UDPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: make([]byte, 64)})
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Serialize(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeVXLAN(b *testing.B) {
	p := NewVXLAN(VXLANOpts{OuterSrc: ipA, OuterDst: ipB, VNI: 1, InnerSrc: ipA, InnerDst: ipB, InnerSrcPort: 1, InnerDstPort: 2, Payload: make([]byte, 64)})
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Serialize(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseDropsEthernetPadding: a frame zero-padded to Ethernet's
// 60-byte minimum (a longer one by 6 bytes) parses with its payload
// ended where the outer IPv4 datagram ends, so it serializes back to the
// unpadded frame rather than carrying the padding on as L4 payload. An
// IPv4 length that does not cover the parsed headers, or runs past the
// frame, leaves the payload running to the end of the frame.
func TestParseDropsEthernetPadding(t *testing.T) {
	udp := NewUDP(UDPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: []byte("abcd")})
	tcp := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: []byte("ab")})
	sfc := tcp.Clone()
	sfc.TCP.Options = []byte{1, 1, 1, 1}
	sfc.PushSFC(nsh.New(5, 3))
	icmp := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB})
	icmp.SetInvalid(HdrTCP)
	icmp.SetValid(HdrICMP)
	for _, tc := range []struct {
		name string
		pkt  *Parsed
		wire int // unpadded frame length
	}{
		{"udp", udp, 46}, {"tcp", tcp, 56}, {"sfc+tcp options", sfc, 80}, {"icmp", icmp, 42},
	} {
		wire, err := tc.pkt.Serialize(nil)
		if err != nil || len(wire) != tc.wire {
			t.Fatalf("%s: serialized %d bytes, %v; want %d", tc.name, len(wire), err, tc.wire)
		}
		padded := append(append([]byte(nil), wire...), make([]byte, max(60, len(wire)+6)-len(wire))...)
		var p Parsed
		if err := p.Parse(padded); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(p.Payload, tc.pkt.Payload) {
			t.Errorf("%s: padded frame's payload %x, want %x", tc.name, p.Payload, tc.pkt.Payload)
		}
		out, err := p.Serialize(nil)
		if err != nil || !bytes.Equal(out, wire) {
			t.Errorf("%s: padded frame reserializes as\n %x (%v), want\n %x", tc.name, out, err, wire)
		}
	}

	// Lengths the rule does not trust: the payload keeps every byte.
	wire, _ := udp.Serialize(nil)
	padded := append(append([]byte(nil), wire...), make([]byte, 14)...)
	for _, ipLen := range []uint16{0, 20 + UDPLen - 1, 60} {
		put16(padded[EthernetLen+2:], ipLen)
		var p Parsed
		if err := p.Parse(padded); err != nil {
			t.Fatal(err)
		}
		if got, want := len(p.Payload), len(padded)-42; got != want {
			t.Errorf("IPv4 length %d in a %d-byte frame: payload %d bytes, want %d", ipLen, len(padded), got, want)
		}
	}
	// The datagram exactly covering the headers: an empty payload.
	put16(padded[EthernetLen+2:], 20+UDPLen)
	var p Parsed
	if err := p.Parse(padded); err != nil || len(p.Payload) != 0 {
		t.Errorf("IPv4 length 28: payload %d bytes, %v; want 0", len(p.Payload), err)
	}
}

// TestCodecAllocBudget: once its slot and buffer are warm, Parse and
// Serialize allocate nothing on each fixed layout (Ethernet/IPv4/TCP,
// Ethernet/IPv4/UDP, and VXLAN around an inner TCP stack) and on a
// per-header stack (an SFC header, with IPv4 and TCP options).
func TestCodecAllocBudget(t *testing.T) {
	sfc := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: make([]byte, 32)})
	sfc.IPv4.Options, sfc.TCP.Options = make([]byte, 8), make([]byte, 12)
	sfc.PushSFC(nsh.New(5, 3))
	for _, tc := range []struct {
		name string
		pkt  *Parsed
	}{
		{"tcp", NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: make([]byte, 10)})},
		{"udp", NewUDP(UDPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2, Payload: make([]byte, 10)})},
		{"vxlan", NewVXLAN(VXLANOpts{OuterSrc: ipA, OuterDst: ipB, VNI: 1, InnerSrc: ipA, InnerDst: ipB, InnerSrcPort: 1, InnerDstPort: 2, Payload: make([]byte, 10)})},
		{"sfc with options", sfc},
	} {
		wire, err := tc.pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		var slot Parsed
		buf := make([]byte, 0, 256)
		if n := testing.AllocsPerRun(1000, func() {
			if err := slot.Parse(wire); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Parse %v allocs/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if buf, err = slot.Serialize(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Serialize %v allocs/op, want 0", tc.name, n)
		}
		if !bytes.Equal(buf, wire) {
			t.Errorf("%s: reserialized as %x, want %x", tc.name, buf, wire)
		}
	}
}
