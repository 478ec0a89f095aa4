package nf

import (
	"encoding/binary"
	"fmt"

	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// Classifier is the entry NF of every Dejavu chain (Fig. 2): it
// inspects incoming traffic, selects the service path, and pushes the
// SFC header. The framework supplies it for all SFC paths.
type Classifier struct {
	// rules is a ternary classification over the 5-tuple.
	rules *mau.TernaryTable
	// defaultPath is used when no rule matches; the paper's green path
	// (Classifier → Router).
	defaultPath  uint16
	defaultIndex uint8
	// pathIndex records the initial service index (chain length) of
	// each path so the classifier can stamp it.
	pathIndex map[uint16]uint8
	// pathTenant optionally tags a tenant ID into the SFC context.
	pathTenant map[uint16]uint16
}

// classKeyLen is the ternary key layout:
// srcIP(4) dstIP(4) proto(1) srcPort(2) dstPort(2) — the wire order of
// the flow key, so the classifier and the firewall match on
// packet.Parsed.FlowWords as it comes.
const classKeyLen = 13

// classRule lays a rule's match out in the same key layout; a zero port
// is a wildcard.
func classRule(src, srcMask, dst, dstMask packet.IP4, proto, protoMask uint8, srcPort, dstPort uint16) (value, mask []byte) {
	value, mask = make([]byte, classKeyLen), make([]byte, classKeyLen)
	copy(value[0:4], src[:])
	copy(mask[0:4], srcMask[:])
	copy(value[4:8], dst[:])
	copy(mask[4:8], dstMask[:])
	value[8], mask[8] = proto, protoMask
	if srcPort != 0 {
		binary.BigEndian.PutUint16(value[9:], srcPort)
		binary.BigEndian.PutUint16(mask[9:], 0xFFFF)
	}
	if dstPort != 0 {
		binary.BigEndian.PutUint16(value[11:], dstPort)
		binary.BigEndian.PutUint16(mask[11:], 0xFFFF)
	}
	return value, mask
}

// NewClassifier creates a classifier whose miss path is defaultPath
// with the given initial service index.
func NewClassifier(defaultPath uint16, defaultIndex uint8) *Classifier {
	return &Classifier{
		rules:        mau.NewTernaryTable(),
		defaultPath:  defaultPath,
		defaultIndex: defaultIndex,
		pathIndex:    map[uint16]uint8{defaultPath: defaultIndex},
		pathTenant:   make(map[uint16]uint16),
	}
}

// Name implements NF.
func (c *Classifier) Name() string { return "classifier" }

// ClassRule is one classification rule.
type ClassRule struct {
	SrcIP, SrcMask   packet.IP4
	DstIP, DstMask   packet.IP4
	Proto, ProtoMask uint8
	SrcPort          uint16 // 0 = wildcard
	DstPort          uint16 // 0 = wildcard
	Priority         int

	Path         uint16 // service path ID to assign
	InitialIndex uint8  // chain length
	Tenant       uint16 // 0 = no tenant context
}

// AddRule installs a classification rule.
func (c *Classifier) AddRule(r ClassRule) error {
	if r.InitialIndex == 0 {
		return fmt.Errorf("nf: classifier rule for path %d has zero initial index", r.Path)
	}
	value, mask := classRule(r.SrcIP, r.SrcMask, r.DstIP, r.DstMask, r.Proto, r.ProtoMask, r.SrcPort, r.DstPort)
	c.pathIndex[r.Path] = r.InitialIndex
	if r.Tenant != 0 {
		c.pathTenant[r.Path] = r.Tenant
	}
	return c.rules.Insert(value, mask, r.Priority, mau.Entry{
		Action: "set_path",
		Params: []uint64{uint64(r.Path), uint64(r.InitialIndex), uint64(r.Tenant)},
	})
}

// Execute implements NF: classify and push the SFC header. Packets
// that already carry an SFC header (resubmitted/recirculated) pass
// through untouched.
//
//dv:hotpath
func (c *Classifier) Execute(hdr *packet.Parsed) {
	if hdr.Valid(packet.HdrSFC) {
		return
	}
	path, index := c.defaultPath, c.defaultIndex
	var tenant uint16
	if k0, k1, ok := hdr.FlowWords(); ok {
		if e := c.rules.LookupWords(k0, k1, classKeyLen); e != nil {
			path = uint16(e.Params[0])
			index = uint8(e.Params[1])
			tenant = uint16(e.Params[2])
		}
	}
	// Written in place (a header built on the stack and copied in is
	// reloaded before its stores retire): the platform metadata the
	// framework seeded stays, the rest is what nsh.New would stamp.
	h := &hdr.SFC
	h.ServicePathID, h.ServiceIndex = path, index
	h.Meta.OutPort = nsh.OutPortUnset
	h.Context = [nsh.NumContextPairs]nsh.ContextPair{}
	h.NextProto = nsh.ProtoNone
	if tenant != 0 {
		h.Context[0] = nsh.ContextPair{Key: nsh.KeyTenantID, Value: tenant}
	}
	hdr.SetValid(packet.HdrSFC)
}

// Rules returns the number of installed rules.
func (c *Classifier) Rules() int { return c.rules.Len() }

// ContextReads implements ContextUser: the classifier reads nothing.
func (c *Classifier) ContextReads() []uint8 { return nil }

// ContextWrites implements ContextUser: rules may stamp a tenant ID.
func (c *Classifier) ContextWrites() []uint8 { return []uint8{nsh.KeyTenantID} }

// StampedPaths implements PathStamper: every path a rule (or the miss
// default) can assign, with the initial service index stamped for it.
func (c *Classifier) StampedPaths() map[uint16]uint8 {
	out := make(map[uint16]uint8, len(c.pathIndex))
	for p, i := range c.pathIndex {
		out[p] = i
	}
	return out
}

// Block implements NF.
func (c *Classifier) Block() *p4.ControlBlock { return classifierBlock() }

var classifierBlock = p4.SharedControl(func() *p4.ControlBlock {
	classMap := &p4.Table{
		Name: "class_map",
		Keys: []p4.Key{
			{Field: "ipv4.src_addr", Kind: p4.MatchTernary},
			{Field: "ipv4.dst_addr", Kind: p4.MatchTernary},
			{Field: "ipv4.protocol", Kind: p4.MatchTernary},
			{Field: "tcp.src_port", Kind: p4.MatchTernary},
			{Field: "tcp.dst_port", Kind: p4.MatchTernary},
		},
		Actions: []*p4.Action{
			{
				Name:   "set_path",
				Params: []p4.Field{{Name: "path", Bits: 16}, {Name: "index", Bits: 8}, {Name: "tenant", Bits: 16}},
				Ops: []p4.Op{
					{Kind: p4.OpAddHeader, Dst: "sfc.service_path_id"},
					{Kind: p4.OpSetField, Dst: "sfc.service_path_id"},
					{Kind: p4.OpSetField, Dst: "sfc.service_index"},
					{Kind: p4.OpSetField, Dst: "sfc.context"},
				},
			},
			{
				Name:   "set_default_path",
				Params: []p4.Field{{Name: "path", Bits: 16}, {Name: "index", Bits: 8}},
				Ops: []p4.Op{
					{Kind: p4.OpAddHeader, Dst: "sfc.service_path_id"},
					{Kind: p4.OpSetField, Dst: "sfc.service_path_id"},
					{Kind: p4.OpSetField, Dst: "sfc.service_index"},
				},
			},
		},
		DefaultAction: "set_default_path",
		Size:          1024,
	}
	return &p4.ControlBlock{
		Name:   "Classifier_control",
		Tables: []*p4.Table{classMap},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "class_map"}},
	}
})

// Parser implements NF: the classifier must parse both untagged and
// SFC-tagged packets.
func (c *Classifier) Parser() *p4.ParserGraph { return p4.ClassifierParser() }
