package packet

import "encoding/binary"

// EthernetLen is the size of an untagged Ethernet header.
const EthernetLen = 14

// Ethernet is an Ethernet II header (untagged).
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// get reads the header's fields from their wire offsets.
func (e *Ethernet) get(b *[EthernetLen]byte) {
	e.Dst = MAC(b[0:6])
	e.Src = MAC(b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:])
}

// put writes the header's fields at their wire offsets.
func (e *Ethernet) put(b *[EthernetLen]byte) {
	*(*MAC)(b[0:6]) = e.Dst
	*(*MAC)(b[6:12]) = e.Src
	binary.BigEndian.PutUint16(b[12:], e.EtherType)
}

// DecodeFromBytes parses an Ethernet header from the front of data.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetLen {
		return ErrTruncated
	}
	e.get((*[EthernetLen]byte)(data))
	return nil
}

// SerializeTo writes the header into b and returns the bytes written.
func (e *Ethernet) SerializeTo(b []byte) (int, error) {
	if len(b) < EthernetLen {
		return 0, ErrShortBuf
	}
	e.put((*[EthernetLen]byte)(b))
	return EthernetLen, nil
}

// Len returns the serialized header length.
func (e *Ethernet) Len() int { return EthernetLen }
