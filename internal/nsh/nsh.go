// Package nsh implements the Dejavu service function chaining header.
//
// The header format follows Fig. 3 of the paper ("Accelerated Service
// Chaining on a Single Switch ASIC", HotNets '19). It is a customized
// variant of the IETF NSH proposal (RFC 8300) carried between the
// Ethernet and IP headers and signalled by a dedicated EtherType:
//
//	2 bytes  service path ID
//	1 byte   service index
//	4 bytes  platform metadata (inPort, outPort, 5 flag bits)
//	12 bytes SFC context data (four 1-byte-key / 2-byte-value pairs)
//	1 byte   next protocol
//
// The service path ID and service index together identify the next NF
// for a packet; the service index is decremented after each NF. The
// platform metadata mirrors switch-internal state so that NF control
// blocks can request forwarding behaviour (drop, resubmit, recirculate,
// mirror, to-CPU) without knowing platform specifics.
package nsh

import (
	"errors"
	"fmt"
	"strings"
)

// HeaderLen is the on-wire size of the Dejavu SFC header in bytes.
const HeaderLen = 20

// EtherType is the EtherType value that signals an SFC header following
// the Ethernet header. 0x894F is the IEEE-assigned NSH EtherType.
const EtherType = 0x894F

// NumContextPairs is the number of key/value pairs in the context area.
const NumContextPairs = 4

// Next protocol values carried in the trailing byte, mirroring RFC 8300.
const (
	ProtoNone     = 0x00
	ProtoIPv4     = 0x01
	ProtoIPv6     = 0x02
	ProtoEthernet = 0x03
)

// Platform metadata flag bits (bit positions within the flags nibble+1).
const (
	FlagResubmit uint8 = 1 << iota
	FlagRecirculate
	FlagDrop
	FlagMirror
	FlagToCPU
)

// Well-known context keys used by the production edge-cloud chain in §3.
// Key 0 means "empty slot".
const (
	KeyNone     uint8 = 0
	KeyTenantID uint8 = 1
	KeyAppID    uint8 = 2
	KeyDebug    uint8 = 3
	KeyVNI      uint8 = 4 // virtualization gateway: VXLAN network identifier
	KeyQoSClass uint8 = 5
)

// ErrTruncated is returned when decoding from a buffer shorter than
// HeaderLen.
var ErrTruncated = errors.New("nsh: buffer shorter than SFC header")

// ErrContextFull is returned by SetContext when all four context slots
// hold other keys.
var ErrContextFull = errors.New("nsh: all context slots in use")

// ErrReservedKey is returned by SetContext for key 0.
var ErrReservedKey = errors.New("nsh: context key 0 is reserved for empty slots")

// PlatformMeta is the 4-byte platform-specific metadata copy carried in
// the SFC header (§3, Fig. 3). The wire layout is:
//
//	bits 31..20  inPort (12 bits)
//	bits 19..8   outPort (12 bits)
//	bits 7..3    flags: resubmit, recirculate, drop, mirror, toCpu
//	bits 2..0    reserved (zero)
//
// Port numbers are 12 bits, which covers Tofino's 9-bit port space with
// headroom for larger ASICs.
type PlatformMeta struct {
	InPort  uint16 // physical ingress port (12 bits used)
	OutPort uint16 // physical egress port (12 bits used)
	Flags   uint8  // combination of Flag* bits
}

// maxPort is the largest port number representable in the 12-bit fields.
const maxPort = 1<<12 - 1

// OutPortUnset marks "no egress port decided yet". Port 0xFFF is reserved
// for this purpose; it is not a valid physical port.
const OutPortUnset uint16 = maxPort

// encode packs the metadata into 4 bytes.
func (m PlatformMeta) encode(b []byte) {
	v := uint32(m.InPort&maxPort)<<20 | uint32(m.OutPort&maxPort)<<8 | uint32(m.Flags&0x1F)<<3
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// decode unpacks the metadata from 4 bytes.
func (m *PlatformMeta) decode(b []byte) {
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	m.InPort = uint16(v >> 20 & maxPort)
	m.OutPort = uint16(v >> 8 & maxPort)
	m.Flags = uint8(v >> 3 & 0x1F)
}

// Has reports whether all bits in flag are set.
func (m PlatformMeta) Has(flag uint8) bool { return m.Flags&flag == flag }

// Set sets the given flag bits.
func (m *PlatformMeta) Set(flag uint8) { m.Flags |= flag }

// Clear clears the given flag bits.
func (m *PlatformMeta) Clear(flag uint8) { m.Flags &^= flag }

// ContextPair is one key/value slot of the 12-byte SFC context area.
// A zero Key marks an empty slot.
type ContextPair struct {
	Key   uint8
	Value uint16
}

// Header is a decoded Dejavu SFC header.
type Header struct {
	ServicePathID uint16
	ServiceIndex  uint8
	Meta          PlatformMeta
	Context       [NumContextPairs]ContextPair
	NextProto     uint8
}

// New returns a header for the given service path starting at index,
// with the egress port unset.
func New(pathID uint16, index uint8) Header {
	return Header{
		ServicePathID: pathID,
		ServiceIndex:  index,
		Meta:          PlatformMeta{OutPort: OutPortUnset},
	}
}

// DecodeFromBytes parses an SFC header from the front of data.
// It does not retain data.
func (h *Header) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return ErrTruncated
	}
	h.ServicePathID = uint16(data[0])<<8 | uint16(data[1])
	h.ServiceIndex = data[2]
	h.Meta.decode(data[3:7])
	for i := 0; i < NumContextPairs; i++ {
		off := 7 + 3*i
		h.Context[i] = ContextPair{
			Key:   data[off],
			Value: uint16(data[off+1])<<8 | uint16(data[off+2]),
		}
	}
	h.NextProto = data[19]
	return nil
}

// SerializeTo writes the header into b, which must be at least HeaderLen
// bytes long, and returns the number of bytes written.
func (h *Header) SerializeTo(b []byte) (int, error) {
	if len(b) < HeaderLen {
		return 0, fmt.Errorf("nsh: serialize buffer too short: %d < %d", len(b), HeaderLen)
	}
	b[0] = byte(h.ServicePathID >> 8)
	b[1] = byte(h.ServicePathID)
	b[2] = h.ServiceIndex
	h.Meta.encode(b[3:7])
	for i := range h.Context {
		p := &h.Context[i]
		off := 7 + 3*i
		b[off] = p.Key
		b[off+1] = byte(p.Value >> 8)
		b[off+2] = byte(p.Value)
	}
	b[19] = h.NextProto
	return HeaderLen, nil
}

// Append appends the serialized header to b and returns the extended
// slice.
func (h *Header) Append(b []byte) []byte {
	var buf [HeaderLen]byte
	h.SerializeTo(buf[:]) // cannot fail: buffer is exactly HeaderLen
	return append(b, buf[:]...)
}

// Context lookup and mutation. The context area is formatted as
// key-value pairs so NFs can carry tenant ID, application ID and
// debugging info along a service path (§3).

// LookupContext returns the value stored under key and whether the key
// is present.
func (h *Header) LookupContext(key uint8) (uint16, bool) {
	if key == KeyNone {
		return 0, false
	}
	for i := range h.Context {
		if p := &h.Context[i]; p.Key == key {
			return p.Value, true
		}
	}
	return 0, false
}

// SetContext stores value under key, reusing the slot if the key is
// already present and otherwise claiming the first empty slot. It
// returns ErrContextFull when no slot is available and ErrReservedKey
// for key 0.
func (h *Header) SetContext(key uint8, value uint16) error {
	if key == KeyNone {
		return ErrReservedKey
	}
	empty := -1
	for i := range h.Context {
		p := &h.Context[i]
		if p.Key == key {
			p.Value = value
			return nil
		}
		if p.Key == KeyNone && empty < 0 {
			empty = i
		}
	}
	if empty < 0 {
		return ErrContextFull
	}
	h.Context[empty] = ContextPair{Key: key, Value: value}
	return nil
}

// DeleteContext removes key from the context area, reporting whether it
// was present.
func (h *Header) DeleteContext(key uint8) bool {
	for i := range h.Context {
		if key != KeyNone && h.Context[i].Key == key {
			h.Context[i] = ContextPair{}
			return true
		}
	}
	return false
}

// ContextLen returns the number of occupied context slots.
func (h *Header) ContextLen() int {
	n := 0
	for i := range h.Context {
		if h.Context[i].Key != KeyNone {
			n++
		}
	}
	return n
}

// Advance decrements the service index after an NF has processed the
// packet, returning the new index. Advancing below zero saturates at
// zero; a zero index means the chain is complete.
func (h *Header) Advance() uint8 {
	if h.ServiceIndex > 0 {
		h.ServiceIndex--
	}
	return h.ServiceIndex
}

// Done reports whether the service chain has been fully traversed.
func (h *Header) Done() bool { return h.ServiceIndex == 0 }

// String renders the header for debugging.
func (h *Header) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SFC{path=%d idx=%d in=%d out=", h.ServicePathID, h.ServiceIndex, h.Meta.InPort)
	if h.Meta.OutPort == OutPortUnset {
		sb.WriteString("unset")
	} else {
		fmt.Fprintf(&sb, "%d", h.Meta.OutPort)
	}
	var flags []string
	for _, f := range []struct {
		bit  uint8
		name string
	}{
		{FlagResubmit, "resubmit"},
		{FlagRecirculate, "recirc"},
		{FlagDrop, "drop"},
		{FlagMirror, "mirror"},
		{FlagToCPU, "toCpu"},
	} {
		if h.Meta.Has(f.bit) {
			flags = append(flags, f.name)
		}
	}
	if len(flags) > 0 {
		fmt.Fprintf(&sb, " flags=%s", strings.Join(flags, "|"))
	}
	for i := range h.Context {
		if p := &h.Context[i]; p.Key != KeyNone {
			fmt.Fprintf(&sb, " ctx[%d]=%d", p.Key, p.Value)
		}
	}
	fmt.Fprintf(&sb, " next=%d}", h.NextProto)
	return sb.String()
}
