package packet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dejavu/internal/nsh"
)

// The per-header parser Parse's fixed layouts sit beside, kept as the
// reference: the generic parser graph walked one header at a time, each
// header decoded by its own bounds-checked reader written byte by byte,
// sharing no field code with the package's kernels.

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }

func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func refDecodeEthernet(e *Ethernet, data []byte) error {
	if len(data) < EthernetLen {
		return ErrTruncated
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = be16(data[12:14])
	return nil
}

func refDecodeIPv4(ip *IPv4, data []byte) error {
	if len(data) < IPv4MinLen {
		return ErrTruncated
	}
	ip.Version = data[0] >> 4
	ip.IHL = data[0] & 0x0F
	hdrLen := int(ip.IHL) * 4
	if hdrLen < IPv4MinLen || len(data) < hdrLen {
		return ErrTruncated
	}
	ip.TOS = data[1]
	ip.Length = be16(data[2:4])
	ip.ID = be16(data[4:6])
	ff := be16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1FFF
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = be16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	ip.Options = append(ip.Options[:0], data[IPv4MinLen:hdrLen]...)
	return nil
}

func refDecodeTCP(t *TCP, data []byte) error {
	if len(data) < TCPMinLen {
		return ErrTruncated
	}
	t.SrcPort = be16(data[0:2])
	t.DstPort = be16(data[2:4])
	t.Seq = be32(data[4:8])
	t.Ack = be32(data[8:12])
	t.DataOff = data[12] >> 4
	hdrLen := int(t.DataOff) * 4
	if hdrLen < TCPMinLen || len(data) < hdrLen {
		return ErrTruncated
	}
	t.Flags = data[13] & 0x3F
	t.Window = be16(data[14:16])
	t.Checksum = be16(data[16:18])
	t.Urgent = be16(data[18:20])
	t.Options = append(t.Options[:0], data[TCPMinLen:hdrLen]...)
	return nil
}

func refDecodeUDP(u *UDP, data []byte) error {
	if len(data) < UDPLen {
		return ErrTruncated
	}
	u.SrcPort = be16(data[0:2])
	u.DstPort = be16(data[2:4])
	u.Length = be16(data[4:6])
	u.Checksum = be16(data[6:8])
	return nil
}

func refDecodeICMP(ic *ICMP, data []byte) error {
	if len(data) < ICMPLen {
		return ErrTruncated
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = be16(data[2:4])
	ic.ID = be16(data[4:6])
	ic.Seq = be16(data[6:8])
	return nil
}

func refDecodeVXLAN(v *VXLAN, data []byte) error {
	if len(data) < VXLANLen {
		return ErrTruncated
	}
	v.VNIValid = data[0]&vxlanFlagVNI != 0
	v.VNI = be32(data[4:8]) >> 8
	return nil
}

func refDecodeARP(a *ARP, data []byte) error {
	if len(data) < ARPLen {
		return ErrTruncated
	}
	if be16(data[0:2]) != 1 || be16(data[2:4]) != EtherTypeIPv4 || data[4] != 6 || data[5] != 4 {
		return errorString("packet: unsupported ARP hardware/protocol type")
	}
	a.Op = be16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	copy(a.SenderIP[:], data[14:18])
	copy(a.TargetMAC[:], data[18:24])
	copy(a.TargetIP[:], data[24:28])
	return nil
}

// refParse is the generic parser graph, one header at a time. When the
// outer IPv4 total length covers the parsed headers and ends before the
// frame does, the payload ends with the datagram.
func refParse(p *Parsed, data []byte) error {
	p.Reset()
	if err := refDecodeEthernet(&p.Eth, data); err != nil {
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
			etherType = EtherTypeVLAN
		default:
			p.Payload = rest
			return nil
		}
	}
	switch etherType {
	case EtherTypeARP:
		if err := refDecodeARP(&p.ARP, rest); err != nil {
			return fmt.Errorf("arp: %w", err)
		}
		p.SetValid(HdrARP)
		p.Payload = rest[ARPLen:]
		return nil
	case EtherTypeIPv4:
	default:
		p.Payload = rest
		return nil
	}
	ip := rest
	if err := refDecodeIPv4(&p.IPv4, rest); err != nil {
		return fmt.Errorf("ipv4: %w", err)
	}
	p.SetValid(HdrIPv4)
	if err := refParseL4(p, rest[p.IPv4.HeaderLen():]); err != nil {
		return err
	}
	hdrs := len(ip) - len(p.Payload)
	if end := int(p.IPv4.Length); end >= hdrs && end < len(ip) {
		p.Payload = ip[hdrs:end]
	}
	return nil
}

func refParseL4(p *Parsed, rest []byte) error {
	switch p.IPv4.Protocol {
	case ProtoTCP:
		if err := refDecodeTCP(&p.TCP, rest); err != nil {
			return fmt.Errorf("tcp: %w", err)
		}
		p.SetValid(HdrTCP)
		p.Payload = rest[p.TCP.HeaderLen():]
	case ProtoUDP:
		if err := refDecodeUDP(&p.UDP, rest); err != nil {
			return fmt.Errorf("udp: %w", err)
		}
		p.SetValid(HdrUDP)
		rest = rest[UDPLen:]
		if p.UDP.DstPort != VXLANPort {
			p.Payload = rest
			return nil
		}
		if err := refDecodeVXLAN(&p.VXLAN, rest); err != nil {
			return fmt.Errorf("vxlan: %w", err)
		}
		p.SetValid(HdrVXLAN)
		rest = rest[VXLANLen:]
		if err := refDecodeEthernet(&p.InnerEth, rest); err != nil {
			return fmt.Errorf("inner ethernet: %w", err)
		}
		p.SetValid(HdrInnerEth)
		rest = rest[EthernetLen:]
		if p.InnerEth.EtherType != EtherTypeIPv4 {
			p.Payload = rest
			return nil
		}
		if err := refDecodeIPv4(&p.InnerIPv4, rest); err != nil {
			return fmt.Errorf("inner ipv4: %w", err)
		}
		p.SetValid(HdrInnerIPv4)
		rest = rest[p.InnerIPv4.HeaderLen():]
		switch p.InnerIPv4.Protocol {
		case ProtoTCP:
			if err := refDecodeTCP(&p.InnerTCP, rest); err != nil {
				return fmt.Errorf("inner tcp: %w", err)
			}
			p.SetValid(HdrInnerTCP)
			p.Payload = rest[p.InnerTCP.HeaderLen():]
		case ProtoUDP:
			if err := refDecodeUDP(&p.InnerUDP, rest); err != nil {
				return fmt.Errorf("inner udp: %w", err)
			}
			p.SetValid(HdrInnerUDP)
			p.Payload = rest[UDPLen:]
		default:
			p.Payload = rest
		}
	case ProtoICMP:
		if err := refDecodeICMP(&p.ICMP, rest); err != nil {
			return fmt.Errorf("icmp: %w", err)
		}
		p.SetValid(HdrICMP)
		p.Payload = rest[ICMPLen:]
	default:
		p.Payload = rest
	}
	return nil
}

// parsedDiff names the first difference between two parses of the same
// frame: validity mask, any valid header's fields (options by value),
// the SFC header, or payload; "" when they agree.
func parsedDiff(got, want *Parsed) string {
	if got.ValidMask() != want.ValidMask() {
		return fmt.Sprintf("validity %#x, want %#x", got.ValidMask(), want.ValidMask())
	}
	// Options compare by value: a nil and an empty slice are the same.
	g, w := *got, *want
	for _, o := range []struct {
		bit  HeaderBit
		g, w *[]byte
	}{
		{HdrIPv4, &g.IPv4.Options, &w.IPv4.Options}, {HdrTCP, &g.TCP.Options, &w.TCP.Options},
		{HdrInnerIPv4, &g.InnerIPv4.Options, &w.InnerIPv4.Options}, {HdrInnerTCP, &g.InnerTCP.Options, &w.InnerTCP.Options},
	} {
		if got.Valid(o.bit) && !bytes.Equal(*o.g, *o.w) {
			return fmt.Sprintf("header %#x: options %x, want %x", o.bit, *o.g, *o.w)
		}
		*o.g, *o.w = nil, nil
	}
	for _, h := range []struct {
		bit       HeaderBit
		got, want any
	}{
		{HdrEth, g.Eth, w.Eth}, {HdrSFC, g.SFC, w.SFC}, {HdrARP, g.ARP, w.ARP},
		{HdrIPv4, g.IPv4, w.IPv4}, {HdrTCP, g.TCP, w.TCP}, {HdrUDP, g.UDP, w.UDP},
		{HdrICMP, g.ICMP, w.ICMP}, {HdrVXLAN, g.VXLAN, w.VXLAN}, {HdrInnerEth, g.InnerEth, w.InnerEth},
		{HdrInnerIPv4, g.InnerIPv4, w.InnerIPv4}, {HdrInnerTCP, g.InnerTCP, w.InnerTCP},
		{HdrInnerUDP, g.InnerUDP, w.InnerUDP},
	} {
		// The SFC header is compared even when not valid: Parse clears it
		// with the validity mask (Parsed.Reset says why).
		if (got.Valid(h.bit) || h.bit == HdrSFC) && !reflect.DeepEqual(h.got, h.want) {
			return fmt.Sprintf("header %#x: %+v, want %+v", h.bit, h.got, h.want)
		}
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		return fmt.Sprintf("payload %x, want %x", got.Payload, want.Payload)
	}
	return ""
}

// parseCorpus is the serialized frame of every stack the parser
// accepts, without options and with random ones, each also zero-padded
// and cut short by one byte and to half its length.
func parseCorpus() [][]byte {
	rng := rand.New(rand.NewSource(3))
	var corpus [][]byte
	for _, mask := range parserStacks() {
		for _, opts := range []int{0, 4, 12} {
			p := wireLenPacket(mask, opts, opts, opts, opts, 6)
			parseable(p)
			rng.Read(p.Payload)
			for _, o := range [][]byte{p.IPv4.Options, p.TCP.Options, p.InnerIPv4.Options, p.InnerTCP.Options} {
				rng.Read(o)
			}
			wire, err := p.Serialize(nil)
			if err != nil {
				panic(err)
			}
			corpus = append(corpus, wire, append(append([]byte(nil), wire...), make([]byte, 18)...),
				wire[:len(wire)-1], wire[:len(wire)/2])
		}
	}
	return corpus
}

// FuzzParse: on any bytes, Parse — through a fixed layout or the
// per-header path — agrees with the reference parser on the error and
// its text, the validity mask, every field of every valid header and
// the payload bytes. The slot is reused, as the datapath reuses it.
func FuzzParse(f *testing.F) {
	for _, wire := range parseCorpus() {
		f.Add(wire)
	}
	f.Add([]byte{})
	var got, want Parsed
	f.Fuzz(func(t *testing.T, data []byte) {
		gotErr, wantErr := got.Parse(data), refParse(&want, data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("% x: Parse error %v, reference %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if d := parsedDiff(&got, &want); d != "" {
			t.Fatalf("% x: %s", data, d)
		}
	})
}

// TestParseMatchesReference runs FuzzParse's check over its seed
// corpus and 20 000 byte-flipped copies of it drawn at random, so that
// any stack follows any other in the reused slot, and requires both of
// Parse's paths to have run.
func TestParseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	corpus := parseCorpus()
	var got, want Parsed
	paths := map[bool]int{}
	for i := 0; i < len(corpus)+20_000; i++ {
		data := corpus[i%len(corpus)]
		if i >= len(corpus) {
			data = append([]byte(nil), corpus[rng.Intn(len(corpus))]...)
			for n := 1 + rng.Intn(3); n > 0 && len(data) > 0; n-- {
				data[rng.Intn(len(data))] = byte(rng.Intn(256))
			}
		}
		gotErr, wantErr := got.Parse(data), refParse(&want, data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("% x: Parse error %v, reference %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if d := parsedDiff(&got, &want); d != "" {
			t.Fatalf("% x: %s", data, d)
		}
		paths[recvLayout(data) != perHeader]++
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("frames parsed through a fixed layout: %d, one header at a time: %d; want both", paths[true], paths[false])
	}
}
