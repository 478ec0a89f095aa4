package nf

import (
	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// ContextFirewall is a context-aware security NF in the spirit of the
// in-network BYOD enforcement the paper cites ([32], Morrison et al.):
// policy decisions depend not only on packet headers but on the SFC
// context the chain has accumulated — here the tenant ID the classifier
// or VGW stamped into the SFC header. This is exactly the capability
// the 12-byte context area of Fig. 3 exists for ("NFs can perform
// policy decisions based on the context").
type ContextFirewall struct {
	// policies maps tenant ID -> policy table over destination port.
	policies map[uint16]*mau.TernaryTable
	// DefaultPermit applies to traffic with no tenant context.
	DefaultPermit bool
}

// NewContextFirewall creates a context-aware firewall.
func NewContextFirewall(defaultPermit bool) *ContextFirewall {
	return &ContextFirewall{
		policies:      make(map[uint16]*mau.TernaryTable),
		DefaultPermit: defaultPermit,
	}
}

// Name implements NF.
func (c *ContextFirewall) Name() string { return "ctxfw" }

// TenantPolicy is one per-tenant rule.
type TenantPolicy struct {
	Tenant   uint16
	DstPort  uint16 // 0 = any
	Proto    uint8  // 0 = any
	Priority int
	Permit   bool
}

// AddPolicy installs a per-tenant policy.
func (c *ContextFirewall) AddPolicy(p TenantPolicy) error {
	tbl := c.policies[p.Tenant]
	if tbl == nil {
		tbl = mau.NewTernaryTable()
		c.policies[p.Tenant] = tbl
	}
	value := make([]byte, 3)
	mask := make([]byte, 3)
	if p.DstPort != 0 {
		value[0], value[1] = byte(p.DstPort>>8), byte(p.DstPort)
		mask[0], mask[1] = 0xFF, 0xFF
	}
	if p.Proto != 0 {
		value[2], mask[2] = p.Proto, 0xFF
	}
	action := "deny"
	if p.Permit {
		action = "permit"
	}
	return tbl.Insert(value, mask, p.Priority, mau.Entry{Action: action})
}

// Policies returns the number of tenants with installed policies.
func (c *ContextFirewall) Policies() int { return len(c.policies) }

// ContextReads implements ContextUser: policy selection is keyed by
// the tenant ID an upstream NF stamped (§3, "NFs can perform policy
// decisions based on the context").
func (c *ContextFirewall) ContextReads() []uint8 { return []uint8{nsh.KeyTenantID} }

// ContextWrites implements ContextUser: the firewall writes nothing.
func (c *ContextFirewall) ContextWrites() []uint8 { return nil }

// Execute implements NF.
//
//dv:hotpath
func (c *ContextFirewall) Execute(hdr *packet.Parsed) {
	tenant, ok := hdr.SFC.LookupContext(nsh.KeyTenantID)
	if !ok {
		if !c.DefaultPermit {
			hdr.SFC.Meta.Set(nsh.FlagDrop)
		}
		return
	}
	tbl := c.policies[tenant]
	if tbl == nil {
		// Tenant without a policy: fall back to the default.
		if !c.DefaultPermit {
			hdr.SFC.Meta.Set(nsh.FlagDrop)
		}
		return
	}
	var dstPort uint16
	var proto uint8
	if hdr.Valid(packet.HdrIPv4) {
		proto = hdr.IPv4.Protocol
	}
	switch {
	case hdr.Valid(packet.HdrTCP):
		dstPort = hdr.TCP.DstPort
	case hdr.Valid(packet.HdrUDP):
		dstPort = hdr.UDP.DstPort
	}
	key := [3]byte{byte(dstPort >> 8), byte(dstPort), proto}
	permit := c.DefaultPermit
	if e, hit := tbl.Lookup(key[:]); hit {
		permit = e.Action == "permit"
	}
	if !permit {
		hdr.SFC.Meta.Set(nsh.FlagDrop)
	}
}

// Block implements NF.
func (c *ContextFirewall) Block() *p4.ControlBlock {
	def := "deny"
	if c.DefaultPermit {
		def = "permit"
	}
	tbl := &p4.Table{
		Name: "ctx_policy",
		Keys: []p4.Key{
			{Field: "sfc.context", Kind: p4.MatchTernary}, // tenant ID lives in the context
			{Field: "tcp.dst_port", Kind: p4.MatchTernary},
			{Field: "ipv4.protocol", Kind: p4.MatchTernary},
		},
		Actions: []*p4.Action{
			{Name: "permit", Ops: []p4.Op{{Kind: p4.OpNoop}}},
			{Name: "deny", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "sfc.flags"}}},
		},
		DefaultAction: def,
		Size:          1024,
	}
	return &p4.ControlBlock{
		Name:   "CtxFW_control",
		Tables: []*p4.Table{tbl},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "ctx_policy"}},
	}
}

// Parser implements NF.
func (c *ContextFirewall) Parser() *p4.ParserGraph { return p4.SFCIPv4Parser() }
