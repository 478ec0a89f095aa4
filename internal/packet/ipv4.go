package packet

// IPv4MinLen is the size of an IPv4 header without options.
const IPv4MinLen = 20

// IPv4 is an IPv4 header. Options are preserved opaquely.
type IPv4 struct {
	Version  uint8 // always 4 on serialize
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8  // 3 bits: reserved, DF, MF
	FragOff  uint16 // 13 bits
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      IP4
	Dst      IP4
	Options  []byte // raw options: a multiple of 4 bytes, at most 40
}

// IPv4 flag bits.
const (
	IPv4DontFragment  uint8 = 0x2
	IPv4MoreFragments uint8 = 0x1
)

// DecodeFromBytes parses an IPv4 header from the front of data. Options
// are copied out so the decoded header does not alias data.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
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
	if hdrLen > IPv4MinLen {
		ip.Options = append(ip.Options[:0], data[IPv4MinLen:hdrLen]...)
	} else {
		ip.Options = ip.Options[:0]
	}
	return nil
}

// HeaderLen returns the serialized header length including options.
func (ip *IPv4) HeaderLen() int { return IPv4MinLen + len(ip.Options) }

// Len returns the serialized header length (alias for HeaderLen).
func (ip *IPv4) Len() int { return ip.HeaderLen() }

// SerializeTo writes the header into b, recomputing IHL and the header
// checksum, and returns the bytes written. The caller must have set
// Length to the full datagram length.
func (ip *IPv4) SerializeTo(b []byte) (int, error) {
	hdrLen := ip.HeaderLen()
	if !optionsLenOK(len(ip.Options)) {
		return 0, &OptionsError{"IPv4", len(ip.Options)}
	}
	if len(b) < hdrLen {
		return 0, ErrShortBuf
	}
	ihl := uint8(hdrLen / 4)
	ff := uint16(ip.Flags&0x7)<<13 | ip.FragOff&0x1FFF
	b[0] = 4<<4 | ihl
	b[1] = ip.TOS
	put16(b[2:4], ip.Length)
	put16(b[4:6], ip.ID)
	put16(b[6:8], ff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0 // checksum computed below
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	var cs uint16
	if hdrLen == IPv4MinLen {
		// No options: the ten header words are the fields just written.
		sum := uint32(b[0])<<8 + uint32(ip.TOS) + uint32(ip.Length) + uint32(ip.ID) + uint32(ff) +
			uint32(ip.TTL)<<8 + uint32(ip.Protocol)
		src, dst := ip.Src.Uint32(), ip.Dst.Uint32()
		sum += src>>16 + src&0xFFFF + dst>>16 + dst&0xFFFF
		sum = sum&0xFFFF + sum>>16
		cs = ^uint16(sum + sum>>16)
	} else {
		copy(b[20:hdrLen], ip.Options)
		cs = Checksum(b[:hdrLen])
	}
	put16(b[10:12], cs)
	ip.Checksum = cs
	ip.Version = 4
	ip.IHL = ihl
	return hdrLen, nil
}

// ValidChecksum reports whether the checksum in a raw IPv4 header is
// correct. data must contain at least the full header.
func ValidChecksum(data []byte) bool {
	if len(data) < IPv4MinLen {
		return false
	}
	hdrLen := int(data[0]&0x0F) * 4
	if hdrLen < IPv4MinLen || len(data) < hdrLen {
		return false
	}
	return Checksum(data[:hdrLen]) == 0
}

// Checksum computes the RFC 1071 Internet checksum over data.
// When data already contains a checksum field, a correct packet sums
// to zero.
func Checksum(data []byte) uint16 {
	var sum uint32
	for len(data) >= 2 {
		sum += uint32(be16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// errorString is a trivial constant-friendly error type.
type errorString string

func (e errorString) Error() string { return string(e) }
