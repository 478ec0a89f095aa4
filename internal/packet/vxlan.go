package packet

import "encoding/binary"

// VXLANLen is the size of a VXLAN header.
const VXLANLen = 8

// vxlanFlagVNI is the I bit indicating a valid VNI.
const vxlanFlagVNI = 0x08

// VXLAN is a VXLAN header (RFC 7348). Only the VNI-valid flag is
// interpreted; reserved fields are zero on serialize.
type VXLAN struct {
	VNIValid bool
	VNI      uint32 // 24 bits
}

// put writes the header's fields at their wire offsets, the reserved
// ones zero.
func (v *VXLAN) put(b *[VXLANLen]byte) {
	b[0] = 0
	if v.VNIValid {
		b[0] = vxlanFlagVNI
	}
	b[1], b[2], b[3] = 0, 0, 0
	binary.BigEndian.PutUint32(b[4:], v.VNI&0xFFFFFF<<8)
}

// DecodeFromBytes parses a VXLAN header from the front of data.
func (v *VXLAN) DecodeFromBytes(data []byte) error {
	if len(data) < VXLANLen {
		return ErrTruncated
	}
	v.VNIValid = data[0]&vxlanFlagVNI != 0
	v.VNI = binary.BigEndian.Uint32(data[4:8]) >> 8
	return nil
}

// SerializeTo writes the header into b and returns the bytes written.
func (v *VXLAN) SerializeTo(b []byte) (int, error) {
	if len(b) < VXLANLen {
		return 0, ErrShortBuf
	}
	v.put((*[VXLANLen]byte)(b))
	return VXLANLen, nil
}

// Len returns the serialized header length.
func (v *VXLAN) Len() int { return VXLANLen }

// ARPLen is the size of an IPv4-over-Ethernet ARP message.
const ARPLen = 28

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an IPv4-over-Ethernet ARP message.
type ARP struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IP4
	TargetMAC MAC
	TargetIP  IP4
}

// DecodeFromBytes parses an ARP message from the front of data.
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < ARPLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(data[0:2]) != 1 || binary.BigEndian.Uint16(data[2:4]) != EtherTypeIPv4 || data[4] != 6 || data[5] != 4 {
		return errorString("packet: unsupported ARP hardware/protocol type")
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	a.SenderMAC = MAC(data[8:14])
	a.SenderIP = IP4(data[14:18])
	a.TargetMAC = MAC(data[18:24])
	a.TargetIP = IP4(data[24:28])
	return nil
}

// SerializeTo writes the message into b and returns the bytes written.
func (a *ARP) SerializeTo(b []byte) (int, error) {
	if len(b) < ARPLen {
		return 0, ErrShortBuf
	}
	binary.BigEndian.PutUint16(b[0:2], 1) // Ethernet
	binary.BigEndian.PutUint16(b[2:4], EtherTypeIPv4)
	b[4], b[5] = 6, 4
	binary.BigEndian.PutUint16(b[6:8], a.Op)
	*(*MAC)(b[8:14]) = a.SenderMAC
	*(*IP4)(b[14:18]) = a.SenderIP
	*(*MAC)(b[18:24]) = a.TargetMAC
	*(*IP4)(b[24:28]) = a.TargetIP
	return ARPLen, nil
}

// Len returns the serialized message length.
func (a *ARP) Len() int { return ARPLen }
