package packet

import "encoding/binary"

// TCPMinLen is the size of a TCP header without options.
const TCPMinLen = 20

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP header. Options are preserved opaquely.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	DataOff  uint8 // header length in 32-bit words
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
	Options  []byte
}

// get reads the fixed part of the header from its wire offsets; the
// options are the caller's.
func (t *TCP) get(b *[TCPMinLen]byte) {
	t.SrcPort = binary.BigEndian.Uint16(b[0:])
	t.DstPort = binary.BigEndian.Uint16(b[2:])
	t.Seq = binary.BigEndian.Uint32(b[4:])
	t.Ack = binary.BigEndian.Uint32(b[8:])
	t.DataOff = b[12] >> 4
	t.Flags = b[13] & 0x3F
	t.Window = binary.BigEndian.Uint16(b[14:])
	t.Checksum = binary.BigEndian.Uint16(b[16:])
	t.Urgent = binary.BigEndian.Uint16(b[18:])
}

// put writes the fixed part of a header off words long at its wire
// offsets and records the written data offset. The caller writes the
// options.
func (t *TCP) put(b *[TCPMinLen]byte, off uint8) {
	binary.BigEndian.PutUint16(b[0:], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:], t.DstPort)
	binary.BigEndian.PutUint32(b[4:], t.Seq)
	binary.BigEndian.PutUint32(b[8:], t.Ack)
	b[12] = off << 4
	b[13] = t.Flags & 0x3F
	binary.BigEndian.PutUint16(b[14:], t.Window)
	binary.BigEndian.PutUint16(b[16:], t.Checksum)
	binary.BigEndian.PutUint16(b[18:], t.Urgent)
	t.DataOff = off
}

// DecodeFromBytes parses a TCP header from the front of data.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPMinLen {
		return ErrTruncated
	}
	hdrLen := int(data[12]>>4) * 4
	if hdrLen < TCPMinLen || len(data) < hdrLen {
		return ErrTruncated
	}
	t.get((*[TCPMinLen]byte)(data))
	if hdrLen > TCPMinLen {
		t.Options = append(t.Options[:0], data[TCPMinLen:hdrLen]...)
	} else {
		t.Options = t.Options[:0]
	}
	return nil
}

// HeaderLen returns the serialized header length including options.
func (t *TCP) HeaderLen() int { return TCPMinLen + len(t.Options) }

// Len returns the serialized header length.
func (t *TCP) Len() int { return t.HeaderLen() }

// SerializeTo writes the header into b, recomputing the data offset,
// and returns the bytes written. The checksum field is written as-is;
// use PseudoHeaderChecksum to compute it from the pseudo-header.
func (t *TCP) SerializeTo(b []byte) (int, error) {
	hdrLen := t.HeaderLen()
	if !optionsLenOK(len(t.Options)) {
		return 0, &OptionsError{"TCP", len(t.Options)}
	}
	if len(b) < hdrLen {
		return 0, ErrShortBuf
	}
	t.put((*[TCPMinLen]byte)(b), uint8(hdrLen/4))
	copy(b[TCPMinLen:hdrLen], t.Options)
	return hdrLen, nil
}

// UDPLen is the size of a UDP header.
const UDPLen = 8

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // header + payload
	Checksum uint16
}

// get reads the header's fields from their wire offsets.
func (u *UDP) get(b *[UDPLen]byte) {
	u.SrcPort = binary.BigEndian.Uint16(b[0:])
	u.DstPort = binary.BigEndian.Uint16(b[2:])
	u.Length = binary.BigEndian.Uint16(b[4:])
	u.Checksum = binary.BigEndian.Uint16(b[6:])
}

// put writes the header's fields at their wire offsets.
func (u *UDP) put(b *[UDPLen]byte) {
	binary.BigEndian.PutUint16(b[0:], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:], u.DstPort)
	binary.BigEndian.PutUint16(b[4:], u.Length)
	binary.BigEndian.PutUint16(b[6:], u.Checksum)
}

// DecodeFromBytes parses a UDP header from the front of data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPLen {
		return ErrTruncated
	}
	u.get((*[UDPLen]byte)(data))
	return nil
}

// SerializeTo writes the header into b and returns the bytes written.
func (u *UDP) SerializeTo(b []byte) (int, error) {
	if len(b) < UDPLen {
		return 0, ErrShortBuf
	}
	u.put((*[UDPLen]byte)(b))
	return UDPLen, nil
}

// Len returns the serialized header length.
func (u *UDP) Len() int { return UDPLen }

// ICMPLen is the size of an ICMP echo header.
const ICMPLen = 8

// ICMP message types used in tests and examples.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
	ICMPTimeExceed  uint8 = 11
)

// ICMP is an ICMP header (echo-style: type, code, checksum, id, seq).
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16
	Seq      uint16
}

// DecodeFromBytes parses an ICMP header from the front of data.
func (ic *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < ICMPLen {
		return ErrTruncated
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.ID = binary.BigEndian.Uint16(data[4:6])
	ic.Seq = binary.BigEndian.Uint16(data[6:8])
	return nil
}

// SerializeTo writes the header into b and returns the bytes written.
func (ic *ICMP) SerializeTo(b []byte) (int, error) {
	if len(b) < ICMPLen {
		return 0, ErrShortBuf
	}
	b[0] = ic.Type
	b[1] = ic.Code
	binary.BigEndian.PutUint16(b[2:4], ic.Checksum)
	binary.BigEndian.PutUint16(b[4:6], ic.ID)
	binary.BigEndian.PutUint16(b[6:8], ic.Seq)
	return ICMPLen, nil
}

// Len returns the serialized header length.
func (ic *ICMP) Len() int { return ICMPLen }

// PseudoHeaderChecksum computes the IPv4 pseudo-header + segment
// checksum used by TCP and UDP. segment must contain the L4 header
// (with a zero checksum field) followed by the payload.
func PseudoHeaderChecksum(src, dst IP4, proto uint8, segment []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))

	cs := ^fold(onesSum(pseudo[:]) + onesSum(segment))
	if cs == 0 && proto == ProtoUDP {
		cs = 0xFFFF // UDP uses 0 to mean "no checksum"
	}
	return cs
}
