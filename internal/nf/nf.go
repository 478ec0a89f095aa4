// Package nf implements the network functions of the paper's
// production edge-cloud service chain (§3, Fig. 2): a traffic
// Classifier, a packet-filtering Firewall, a Virtualization Gateway
// (VXLAN), an L4 Load Balancer, and an IP Router — plus NAT and Mirror
// extensions used by the composition ablations.
//
// Each NF is expressed twice, mirroring how the paper treats NFs:
//
//   - as a P4-like program (a p4.ControlBlock plus a parser fragment),
//     which Dejavu's composer, placer and stage allocator consume; and
//   - as a behavioural Execute function over the parsed header vector,
//     which the ASIC model runs for functional validation.
//
// Following the control block programming interface of §3.1, Execute
// receives only the parsed header vector (`hdr`): NFs communicate
// forwarding intent exclusively through the SFC header's platform
// metadata (drop/toCpu/mirror flags, outPort) and context fields. The
// Dejavu framework — not the NF — translates those into platform
// actions (check_sfcFlags) and advances the service index.
package nf

import (
	"encoding/binary"

	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// NF is one network function.
type NF interface {
	// Name returns the NF's short name (e.g. "fw", "lb").
	Name() string
	// Block returns the NF's match-action program for composition and
	// resource accounting.
	Block() *p4.ControlBlock
	// Parser returns the NF's parser fragment for generic-parser
	// merging.
	Parser() *p4.ParserGraph
	// Execute runs the NF's behavioural logic over the parsed header
	// vector, exactly once per service-chain hop.
	Execute(hdr *packet.Parsed)
}

// ContextUser is an optional interface NFs implement to declare which
// SFC context keys (nsh.Key* values) their Execute logic may read and
// write. The declarations feed the static context def-use analysis
// (internal/lint): a key read by an NF with no upstream writer in the
// chain is a configuration bug, and a key written but never read
// downstream is dead metadata occupying one of the four context slots.
// Declarations are may-sets: a conditional write still counts.
type ContextUser interface {
	// ContextReads returns the context keys the NF may read.
	ContextReads() []uint8
	// ContextWrites returns the context keys the NF may write.
	ContextWrites() []uint8
}

// PathStamper is an optional interface for NFs that assign service
// paths to untagged traffic (the classifier). It exposes the
// (service path ID, initial service index) pairs the NF can stamp, so
// static analysis can verify every stamped path resolves to an
// installed chain with a consistent initial index — the branching
// table is matched on exactly these values (§3.4).
type PathStamper interface {
	// StampedPaths maps each path ID the NF may assign to the initial
	// service index it stamps alongside.
	StampedPaths() map[uint16]uint8
}

// List is an ordered collection of NFs with name lookup.
type List []NF

// ByName returns the NF with the given name, or nil.
func (l List) ByName(name string) NF {
	for _, f := range l {
		if f.Name() == name {
			return f
		}
	}
	return nil
}

// Names returns the NF names in order.
func (l List) Names() []string {
	out := make([]string, len(l))
	for i, f := range l {
		out[i] = f.Name()
	}
	return out
}

// u32Key converts a 32-bit value to an exact-match table key. It is an
// array so a per-packet lookup key lives on the caller's stack.
func u32Key(v uint32) [4]byte {
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// macParam packs a MAC address into an action parameter.
func macParam(m packet.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 | uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// putMAC unpacks macParam into m in place: two stores into the header,
// not a 6-byte temporary that the copy into it would have to wait for.
func putMAC(m *packet.MAC, v uint64) {
	binary.BigEndian.PutUint32(m[:4], uint32(v>>16))
	binary.BigEndian.PutUint16(m[4:], uint16(v))
}
