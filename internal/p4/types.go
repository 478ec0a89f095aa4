// Package p4 defines a P4-like intermediate representation for network
// function programs: header types, parser graphs, match-action tables,
// actions and control blocks.
//
// The paper composes NFs at the level the Tofino compiler sees them —
// parser DAGs, tables with dependencies, and per-table resource needs.
// Since no P4 toolchain is available in this environment, this package
// models exactly that level: rich enough for Dejavu's merging,
// composition and placement algorithms to run unchanged, and for a
// stage allocator (internal/compiler) to produce the same style of
// resource report the Tofino compiler emits.
package p4

import (
	"fmt"
	"slices"
	"strings"
)

// Field is one field of a header type, with its width in bits.
type Field struct {
	Name string
	Bits int
}

// HeaderType describes the layout of a protocol header.
type HeaderType struct {
	Name   string
	Fields []Field
}

// Bits returns the total width of the header in bits.
func (h *HeaderType) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += f.Bits
	}
	return n
}

// Bytes returns the total width of the header in bytes, rounding up.
func (h *HeaderType) Bytes() int { return (h.Bits() + 7) / 8 }

// FieldBits returns the width of the named field, or 0 if absent.
func (h *HeaderType) FieldBits(name string) int {
	for _, f := range h.Fields {
		if f.Name == name {
			return f.Bits
		}
	}
	return 0
}

// HasField reports whether the header type declares the named field.
func (h *HeaderType) HasField(name string) bool { return h.FieldBits(name) > 0 }

// FieldRef names a header field as "header.field" (e.g. "ipv4.dst_addr")
// or a metadata field as "meta.field" / "sfc.field".
type FieldRef string

// Split returns the header and field components of the reference.
func (r FieldRef) Split() (header, field string) {
	s := string(r)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// Header returns the header component of the reference.
func (r FieldRef) Header() string { h, _ := r.Split(); return h }

// Standard header types shared by all Dejavu NFs. Offsets and widths
// match internal/packet's wire formats.
var (
	HdrEthernet = &HeaderType{Name: "ethernet", Fields: []Field{
		{"dst_addr", 48}, {"src_addr", 48}, {"ether_type", 16},
	}}
	HdrSFC = &HeaderType{Name: "sfc", Fields: []Field{
		{"service_path_id", 16}, {"service_index", 8},
		{"in_port", 12}, {"out_port", 12}, {"flags", 5}, {"reserved", 3},
		{"context", 96}, {"next_proto", 8},
	}}
	HdrIPv4 = &HeaderType{Name: "ipv4", Fields: []Field{
		{"version", 4}, {"ihl", 4}, {"tos", 8}, {"total_len", 16},
		{"id", 16}, {"flags", 3}, {"frag_off", 13},
		{"ttl", 8}, {"protocol", 8}, {"checksum", 16},
		{"src_addr", 32}, {"dst_addr", 32},
	}}
	HdrTCP = &HeaderType{Name: "tcp", Fields: []Field{
		{"src_port", 16}, {"dst_port", 16}, {"seq", 32}, {"ack", 32},
		{"data_off", 4}, {"reserved", 6}, {"flags", 6},
		{"window", 16}, {"checksum", 16}, {"urgent", 16},
	}}
	HdrUDP = &HeaderType{Name: "udp", Fields: []Field{
		{"src_port", 16}, {"dst_port", 16}, {"length", 16}, {"checksum", 16},
	}}
	HdrICMP = &HeaderType{Name: "icmp", Fields: []Field{
		{"type", 8}, {"code", 8}, {"checksum", 16}, {"id", 16}, {"seq", 16},
	}}
	HdrARP = &HeaderType{Name: "arp", Fields: []Field{
		{"htype", 16}, {"ptype", 16}, {"hlen", 8}, {"plen", 8}, {"op", 16},
		{"sender_mac", 48}, {"sender_ip", 32}, {"target_mac", 48}, {"target_ip", 32},
	}}
	HdrVXLAN = &HeaderType{Name: "vxlan", Fields: []Field{
		{"flags", 8}, {"reserved1", 24}, {"vni", 24}, {"reserved2", 8},
	}}
	// Metadata "headers": standard platform metadata and user metadata.
	HdrMeta = &HeaderType{Name: "meta", Fields: []Field{
		{"in_port", 12}, {"out_port", 12}, {"next_nf", 8},
		{"resubmit", 1}, {"recirculate", 1}, {"drop", 1}, {"mirror", 1}, {"to_cpu", 1},
		{"session_hash", 32}, {"class_id", 16}, {"tenant_id", 16},
	}}
)

// standardHeaderTypes is the registry StandardHeaderTypes hands out,
// built once: the built-in types are fixed at package initialisation.
var standardHeaderTypes = func() map[string]*HeaderType {
	m := make(map[string]*HeaderType, 10)
	for _, h := range []*HeaderType{
		HdrEthernet, HdrSFC, HdrIPv4, HdrTCP, HdrUDP, HdrICMP, HdrARP, HdrVXLAN, HdrMeta,
	} {
		m[h.Name] = h
	}
	return m
}()

// StandardHeaderTypes returns the registry of built-in header types,
// keyed by name. Inner (post-VXLAN) headers reuse the same types at
// different parser offsets, exactly as the (header_type, offset) vertex
// representation of §3 intends. Every caller gets the same map and
// goroutines read it concurrently: it must not be written to.
func StandardHeaderTypes() map[string]*HeaderType { return standardHeaderTypes }

// MatchKind is the match semantics of one table key component.
type MatchKind uint8

// Match kinds supported by the MAU model.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
	MatchRange
)

// String returns the P4 name of the match kind.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	case MatchRange:
		return "range"
	default:
		return fmt.Sprintf("MatchKind(%d)", uint8(k))
	}
}

// Key is one component of a table's match key.
type Key struct {
	Field FieldRef
	Kind  MatchKind
	Bits  int // field width; 0 means "resolve from header registry"
}

// OpKind enumerates primitive action operations, the VLIW instruction
// set of the MAU model.
type OpKind uint8

// Primitive operations.
const (
	OpSetField  OpKind = iota // dst = immediate or action parameter
	OpCopyField               // dst = src field
	OpAddToField
	OpAddHeader    // make a header valid
	OpRemoveHeader // make a header invalid
	OpHash         // dst = hash(fields...)
	OpCount        // bump a counter
	OpNoop
)

// Op is one primitive operation inside an action.
type Op struct {
	Kind OpKind
	Dst  FieldRef
	Srcs []FieldRef
}

// Action is a named sequence of primitive operations, optionally with
// runtime parameters supplied by table entries.
type Action struct {
	Name   string
	Params []Field // runtime data supplied per table entry
	Ops    []Op
}

// ReadSet returns the fields an action reads.
func (a *Action) ReadSet() []FieldRef {
	var out []FieldRef
	for _, op := range a.Ops {
		out = append(out, op.Srcs...)
	}
	return dedupRefs(out)
}

// WriteSet returns the fields an action writes.
func (a *Action) WriteSet() []FieldRef {
	var out []FieldRef
	for _, op := range a.Ops {
		if op.Dst != "" {
			out = append(out, op.Dst)
		}
	}
	return dedupRefs(out)
}

// dedupRefs sorts refs and drops repeats, in place.
func dedupRefs(refs []FieldRef) []FieldRef {
	slices.Sort(refs)
	return slices.Compact(refs)
}
