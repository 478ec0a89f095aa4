package packet

import "encoding/binary"

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

// The fixed header's kernels split it where each fits the compiler's
// inlining budget, which the fixed layouts need and a whole header's
// fields exceed: reads in two, writes in three (the checksum last).

// getHead reads bytes 0–7: version, IHL, TOS, total length, ID, flags
// and fragment offset.
func (ip *IPv4) getHead(b *[IPv4MinLen]byte) {
	ip.Version = b[0] >> 4
	ip.IHL = b[0] & 0x0F
	ip.TOS = b[1]
	ip.Length = binary.BigEndian.Uint16(b[2:])
	ip.ID = binary.BigEndian.Uint16(b[4:])
	ip.Flags = b[6] >> 5
	ip.FragOff = binary.BigEndian.Uint16(b[6:]) & 0x1FFF
}

// getTail reads bytes 8–19: TTL, protocol, checksum and addresses.
func (ip *IPv4) getTail(b *[IPv4MinLen]byte) {
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:])
	ip.Src = IP4(b[12:16])
	ip.Dst = IP4(b[16:20])
}

// putHead writes bytes 0–7 of a header ihl words long, records the
// version and IHL written, and returns the sum of the 16-bit words.
func (ip *IPv4) putHead(b *[IPv4MinLen]byte, ihl uint8) uint32 {
	vt := uint32(4<<4|ihl)<<8 | uint32(ip.TOS)
	ff := uint32(ip.Flags&0x7)<<13 | uint32(ip.FragOff&0x1FFF)
	binary.BigEndian.PutUint32(b[0:], vt<<16|uint32(ip.Length))
	binary.BigEndian.PutUint32(b[4:], uint32(ip.ID)<<16|ff)
	ip.Version, ip.IHL = 4, ihl
	return vt + uint32(ip.Length) + uint32(ip.ID) + ff
}

// putTail writes bytes 8–19 but the checksum — TTL, protocol and the
// addresses — and returns the sum of their 16-bit words.
func (ip *IPv4) putTail(b *[IPv4MinLen]byte) uint32 {
	tp := uint32(ip.TTL)<<8 | uint32(ip.Protocol)
	src, dst := binary.BigEndian.Uint32(ip.Src[:]), binary.BigEndian.Uint32(ip.Dst[:])
	binary.BigEndian.PutUint16(b[8:], uint16(tp))
	binary.BigEndian.PutUint32(b[12:], src)
	binary.BigEndian.PutUint32(b[16:], dst)
	return tp + src>>16 + src&0xFFFF + dst>>16 + dst&0xFFFF
}

// seal writes and records the checksum of a header whose other 16-bit
// words sum to sum: putHead's and putTail's, and the options'. Summing
// the words as they are written reads back none of the bytes the
// stores are still writing.
func (ip *IPv4) seal(b *[IPv4MinLen]byte, sum uint32) {
	sum = sum&0xFFFF + sum>>16
	cs := ^uint16(sum + sum>>16)
	binary.BigEndian.PutUint16(b[10:], cs)
	ip.Checksum = cs
}

// DecodeFromBytes parses an IPv4 header from the front of data. Options
// are copied out so the decoded header does not alias data.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4MinLen {
		return ErrTruncated
	}
	hdrLen := int(data[0]&0x0F) * 4
	if hdrLen < IPv4MinLen || len(data) < hdrLen {
		return ErrTruncated
	}
	fixed := (*[IPv4MinLen]byte)(data)
	ip.getHead(fixed)
	ip.getTail(fixed)
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
	fixed := (*[IPv4MinLen]byte)(b)
	ip.seal(fixed, ip.putHead(fixed, uint8(hdrLen/4))+ip.putTail(fixed)+onesSum(ip.Options))
	copy(b[IPv4MinLen:hdrLen], ip.Options)
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
func Checksum(data []byte) uint16 { return ^fold(onesSum(data)) }

// onesSum is the unfolded one's-complement sum of data's big-endian
// 16-bit words, an odd last byte padded with zero.
func onesSum(data []byte) uint32 {
	var sum uint32
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	return sum
}

// fold folds the carries of a one's-complement sum into 16 bits.
func fold(sum uint32) uint16 {
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return uint16(sum)
}

// errorString is a trivial constant-friendly error type.
type errorString string

func (e errorString) Error() string { return string(e) }
