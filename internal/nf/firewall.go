package nf

import (
	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// Firewall is a stateless packet-filtering firewall: a prioritized
// ternary ACL over the 5-tuple with permit/deny actions. Deny sets the
// SFC drop flag; the framework's check_sfcFlags translates it into a
// platform drop.
type Firewall struct {
	acl *mau.TernaryTable
	// DefaultPermit selects the miss behaviour; edge firewalls commonly
	// default-deny.
	DefaultPermit bool
}

// NewFirewall creates a firewall with the given miss behaviour.
func NewFirewall(defaultPermit bool) *Firewall {
	return &Firewall{acl: mau.NewTernaryTable(), DefaultPermit: defaultPermit}
}

// Name implements NF.
func (f *Firewall) Name() string { return "fw" }

// ACLRule is one firewall rule.
type ACLRule struct {
	SrcIP, SrcMask   packet.IP4
	DstIP, DstMask   packet.IP4
	Proto, ProtoMask uint8
	SrcPort          uint16 // 0 = wildcard
	DstPort          uint16 // 0 = wildcard
	Priority         int
	Permit           bool
}

// AddRule installs an ACL rule.
func (f *Firewall) AddRule(r ACLRule) error {
	value, mask := classRule(r.SrcIP, r.SrcMask, r.DstIP, r.DstMask, r.Proto, r.ProtoMask, r.SrcPort, r.DstPort)
	// The verdict rides in the action parameter so the per-packet path
	// reads a word instead of comparing action names.
	e := mau.Entry{Action: "deny", Params: []uint64{0}}
	if r.Permit {
		e = mau.Entry{Action: "permit", Params: []uint64{1}}
	}
	return f.acl.Insert(value, mask, r.Priority, e)
}

// Rules returns the number of installed rules.
func (f *Firewall) Rules() int { return f.acl.Len() }

// Execute implements NF.
//
//dv:hotpath
func (f *Firewall) Execute(hdr *packet.Parsed) {
	// Non-TCP/UDP traffic (e.g. ICMP) is evaluated with the zero ports
	// its flow words carry.
	k0, k1, ok := hdr.FlowWords()
	if !ok && !hdr.Valid(packet.HdrIPv4) {
		if !f.DefaultPermit {
			hdr.SFC.Meta.Set(nsh.FlagDrop)
		}
		return
	}
	permit := f.DefaultPermit
	if e := f.acl.LookupWords(k0, k1, classKeyLen); e != nil {
		permit = e.Params[0] != 0
	}
	if !permit {
		hdr.SFC.Meta.Set(nsh.FlagDrop)
	}
}

// Block implements NF: one shared block per miss behaviour.
func (f *Firewall) Block() *p4.ControlBlock {
	if f.DefaultPermit {
		return fwPermitBlock()
	}
	return fwDenyBlock()
}

var (
	fwPermitBlock = p4.SharedControl(func() *p4.ControlBlock { return firewallBlock("permit") })
	fwDenyBlock   = p4.SharedControl(func() *p4.ControlBlock { return firewallBlock("deny") })
)

// firewallBlock declares the firewall's program with miss action def.
func firewallBlock(def string) *p4.ControlBlock {
	acl := &p4.Table{
		Name: "fw_acl",
		Keys: []p4.Key{
			{Field: "ipv4.src_addr", Kind: p4.MatchTernary},
			{Field: "ipv4.dst_addr", Kind: p4.MatchTernary},
			{Field: "ipv4.protocol", Kind: p4.MatchTernary},
			{Field: "tcp.src_port", Kind: p4.MatchTernary},
			{Field: "tcp.dst_port", Kind: p4.MatchTernary},
		},
		Actions: []*p4.Action{
			{Name: "permit", Ops: []p4.Op{{Kind: p4.OpNoop}}},
			{Name: "deny", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "sfc.flags"}}},
		},
		DefaultAction: def,
		Size:          2048,
	}
	return &p4.ControlBlock{
		Name:   "FW_control",
		Tables: []*p4.Table{acl},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "fw_acl"}},
	}
}

// Parser implements NF.
func (f *Firewall) Parser() *p4.ParserGraph { return p4.SFCIPv4Parser() }
