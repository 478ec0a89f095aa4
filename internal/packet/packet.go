// Package packet implements wire-format encoding and decoding for the
// protocol headers used by the Dejavu service chain: Ethernet, the
// Dejavu SFC header (via the nsh package), ARP, IPv4, TCP, UDP, ICMP
// and VXLAN (including one level of inner Ethernet/IPv4/L4 headers for
// the virtualization gateway).
//
// The design follows the gopacket layering conventions: each header
// type has DecodeFromBytes and SerializeTo methods that operate on
// caller-provided buffers without retaining or allocating memory, so a
// datapath can decode millions of packets per second with zero
// allocations. The Parsed type is the analogue of P4's parsed header
// vector: a struct of all supported headers plus validity bits.
package packet

import (
	"errors"
	"fmt"
	"math/bits"
)

// Common errors shared by the header decoders.
var (
	ErrTruncated = errors.New("packet: buffer too short for header")
	ErrShortBuf  = errors.New("packet: serialize buffer too short")
)

// OptionsError refuses to serialize an IPv4 or TCP header whose options
// its 4-bit length field cannot describe: not a multiple of 4, or over 40.
type OptionsError struct {
	Header string // "IPv4" or "TCP"
	Len    int
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("packet: %s options length %d: not a multiple of 4 up to 40 bytes", e.Header, e.Len)
}

// optionsLenOK reports whether n option bytes fit that field in one test:
// rotated right by 2, n is n/4 if a multiple of 4 and huge otherwise.
func optionsLenOK(n int) bool { return bits.RotateLeft(uint(n), -2) <= 10 }

// EtherType values understood by the parser.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeSFC  uint16 = 0x894F // Dejavu SFC header (nsh.EtherType)
	EtherTypeVLAN uint16 = 0x8100
)

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// VXLANPort is the IANA-assigned UDP destination port for VXLAN.
const VXLANPort uint16 = 4789

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the address in canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (m MAC) IsBroadcast() bool {
	return m == MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
}

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IP4 is an IPv4 address in host-independent big-endian array form.
// Using a fixed array keeps addresses comparable and hashable.
type IP4 [4]byte

// String renders the address in dotted-quad form.
func (a IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer, convenient for
// longest-prefix-match keys.
func (a IP4) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IP4FromUint32 converts a big-endian integer to an address.
func IP4FromUint32(v uint32) IP4 {
	return IP4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// be16 reads a big-endian 16-bit value.
func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

// be32 reads a big-endian 32-bit value.
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// put16 writes a big-endian 16-bit value.
func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }

// put32 writes a big-endian 32-bit value.
func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
