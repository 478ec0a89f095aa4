package packet

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

// DecodeFromBytes parses a TCP header from the front of data.
func (t *TCP) DecodeFromBytes(data []byte) error {
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
// use ComputeTCPChecksum to fill it from the pseudo-header.
func (t *TCP) SerializeTo(b []byte) (int, error) {
	hdrLen := t.HeaderLen()
	if !optionsLenOK(len(t.Options)) {
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

// UDPLen is the size of a UDP header.
const UDPLen = 8

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // header + payload
	Checksum uint16
}

// DecodeFromBytes parses a UDP header from the front of data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPLen {
		return ErrTruncated
	}
	u.SrcPort = be16(data[0:2])
	u.DstPort = be16(data[2:4])
	u.Length = be16(data[4:6])
	u.Checksum = be16(data[6:8])
	return nil
}

// SerializeTo writes the header into b and returns the bytes written.
func (u *UDP) SerializeTo(b []byte) (int, error) {
	if len(b) < UDPLen {
		return 0, ErrShortBuf
	}
	put16(b[0:2], u.SrcPort)
	put16(b[2:4], u.DstPort)
	put16(b[4:6], u.Length)
	put16(b[6:8], u.Checksum)
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
	ic.Checksum = be16(data[2:4])
	ic.ID = be16(data[4:6])
	ic.Seq = be16(data[6:8])
	return nil
}

// SerializeTo writes the header into b and returns the bytes written.
func (ic *ICMP) SerializeTo(b []byte) (int, error) {
	if len(b) < ICMPLen {
		return 0, ErrShortBuf
	}
	b[0] = ic.Type
	b[1] = ic.Code
	put16(b[2:4], ic.Checksum)
	put16(b[4:6], ic.ID)
	put16(b[6:8], ic.Seq)
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
	put16(pseudo[10:12], uint16(len(segment)))

	var sum uint32
	add := func(data []byte) {
		for len(data) >= 2 {
			sum += uint32(be16(data))
			data = data[2:]
		}
		if len(data) == 1 {
			sum += uint32(data[0]) << 8
		}
	}
	add(pseudo[:])
	add(segment)
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	cs := ^uint16(sum)
	if cs == 0 && proto == ProtoUDP {
		cs = 0xFFFF // UDP uses 0 to mean "no checksum"
	}
	return cs
}
