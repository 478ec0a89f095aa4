package nf

import (
	"encoding/binary"

	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// VGW is the virtualization gateway: it terminates VXLAN tunnels
// between tenant workloads and the Internet. Tenant-originated traffic
// arrives VXLAN-encapsulated and is decapsulated (the VNI authenticates
// the tenant); Internet-originated traffic destined to a tenant prefix
// is encapsulated toward the tenant's VTEP.
type VGW struct {
	// vniTable maps VNI -> tenant ID (decap direction).
	vniTable *mau.ExactTable
	// encapTable maps inner destination IP -> encap parameters (VNI,
	// remote VTEP, workload MAC; encap direction).
	encapTable *mau.ExactTable
	// LocalVTEP is the gateway's own tunnel endpoint address.
	LocalVTEP packet.IP4
	LocalMAC  packet.MAC
}

// EncapEntry describes how to reach a tenant workload.
type EncapEntry struct {
	VNI      uint32
	RemoteIP packet.IP4 // remote VTEP
	NextMAC  packet.MAC // inner destination MAC (workload)
}

// NewVGW creates a virtualization gateway.
func NewVGW(localVTEP packet.IP4, localMAC packet.MAC) *VGW {
	return &VGW{
		vniTable:   mau.NewExactTable(4096),
		encapTable: mau.NewExactTable(4096),
		LocalVTEP:  localVTEP,
		LocalMAC:   localMAC,
	}
}

// Name implements NF.
func (v *VGW) Name() string { return "vgw" }

// AddVNI authorizes a VNI and associates it with a tenant ID.
func (v *VGW) AddVNI(vni uint32, tenant uint16) error {
	key := u32Key(vni)
	return v.vniTable.Insert(key[:], mau.Entry{Action: "set_tenant", Params: []uint64{uint64(tenant)}})
}

// AddEncapRoute installs an encapsulation rule for an inner IP. It
// fails when encap_table is full.
func (v *VGW) AddEncapRoute(innerDst packet.IP4, e EncapEntry) error {
	return v.encapTable.Insert(innerDst[:], mau.Entry{
		Action: "vxlan_encap",
		Params: []uint64{uint64(e.VNI), uint64(e.RemoteIP.Uint32()), macParam(e.NextMAC)},
	})
}

// ContextReads implements ContextUser: the VGW reads nothing.
func (v *VGW) ContextReads() []uint8 { return nil }

// ContextWrites implements ContextUser: decap stamps the tenant behind
// a VNI; both directions record the VNI itself.
func (v *VGW) ContextWrites() []uint8 { return []uint8{nsh.KeyTenantID, nsh.KeyVNI} }

// Execute implements NF.
//
//dv:hotpath
func (v *VGW) Execute(hdr *packet.Parsed) {
	switch {
	case hdr.Valid(packet.HdrVXLAN):
		v.decap(hdr)
	case hdr.Valid(packet.HdrIPv4):
		v.maybeEncap(hdr)
	}
}

// decap strips the VXLAN encapsulation, promoting the inner stack.
// Unknown VNIs are dropped (tenant isolation).
func (v *VGW) decap(hdr *packet.Parsed) {
	key := u32Key(hdr.VXLAN.VNI)
	e, ok := v.vniTable.Lookup(key[:])
	if !ok {
		hdr.SFC.Meta.Set(nsh.FlagDrop)
		return
	}
	tenant := uint16(e.Param(0))
	if hdr.Valid(packet.HdrSFC) {
		hdr.SFC.SetContext(nsh.KeyTenantID, tenant)
		hdr.SFC.SetContext(nsh.KeyVNI, uint16(hdr.VXLAN.VNI&0xFFFF))
	}
	// Promote inner headers to outer position.
	hdr.IPv4 = hdr.InnerIPv4
	switch {
	case hdr.Valid(packet.HdrInnerTCP):
		hdr.TCP = hdr.InnerTCP
		hdr.SetValid(packet.HdrTCP)
		hdr.SetInvalid(packet.HdrUDP)
	case hdr.Valid(packet.HdrInnerUDP):
		hdr.UDP = hdr.InnerUDP
		hdr.SetValid(packet.HdrUDP)
		hdr.SetInvalid(packet.HdrTCP)
	default:
		hdr.SetInvalid(packet.HdrUDP)
	}
	hdr.SetInvalid(packet.HdrVXLAN | packet.HdrInnerEth | packet.HdrInnerIPv4 | packet.HdrInnerTCP | packet.HdrInnerUDP)
}

// maybeEncap wraps Internet traffic destined to a known tenant
// workload in a VXLAN tunnel; other traffic passes through.
func (v *VGW) maybeEncap(hdr *packet.Parsed) {
	hit, ok := v.encapTable.Lookup(hdr.IPv4.Dst[:])
	if !ok {
		return
	}
	vni := uint32(hit.Param(0))
	// Demote the current stack to inner.
	hdr.InnerIPv4 = hdr.IPv4
	putMAC(&hdr.InnerEth.Dst, hit.Param(2))
	hdr.InnerEth.Src, hdr.InnerEth.EtherType = v.LocalMAC, packet.EtherTypeIPv4
	hdr.SetValid(packet.HdrInnerEth | packet.HdrInnerIPv4)
	switch {
	case hdr.Valid(packet.HdrTCP):
		hdr.InnerTCP = hdr.TCP
		hdr.SetValid(packet.HdrInnerTCP)
		hdr.SetInvalid(packet.HdrTCP)
	case hdr.Valid(packet.HdrUDP):
		hdr.InnerUDP = hdr.UDP
		hdr.SetValid(packet.HdrInnerUDP)
	}
	// Build the outer stack.
	hdr.IPv4 = packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: v.LocalVTEP}
	binary.BigEndian.PutUint32(hdr.IPv4.Dst[:], uint32(hit.Param(1)))
	hdr.UDP = packet.UDP{SrcPort: vxlanSrcPort(hdr), DstPort: packet.VXLANPort}
	hdr.VXLAN = packet.VXLAN{VNIValid: true, VNI: vni}
	hdr.SetValid(packet.HdrUDP | packet.HdrVXLAN)
	if hdr.Valid(packet.HdrSFC) {
		hdr.SFC.SetContext(nsh.KeyVNI, uint16(vni&0xFFFF))
	}
}

// vxlanSrcPort derives the outer UDP source port from the inner flow
// hash for ECMP entropy, as VTEPs conventionally do.
func vxlanSrcPort(hdr *packet.Parsed) uint16 {
	var sport, dport uint16
	if hdr.Valid(packet.HdrInnerTCP) {
		sport, dport = hdr.InnerTCP.SrcPort, hdr.InnerTCP.DstPort
	} else if hdr.Valid(packet.HdrInnerUDP) {
		sport, dport = hdr.InnerUDP.SrcPort, hdr.InnerUDP.DstPort
	}
	return 0xC000 | uint16(packet.FlowHash(hdr.InnerIPv4.FlowWords(sport, dport))&0x3FFF)
}

// VNIs returns the number of authorized VNIs.
func (v *VGW) VNIs() int { return v.vniTable.Len() }

// Block implements NF.
func (v *VGW) Block() *p4.ControlBlock { return vgwBlock() }

var vgwBlock = p4.SharedControl(func() *p4.ControlBlock {
	vni := &p4.Table{
		Name: "vni_table",
		Keys: []p4.Key{{Field: "vxlan.vni", Kind: p4.MatchExact}},
		Actions: []*p4.Action{
			{
				Name:   "decap_set_tenant",
				Params: []p4.Field{{Name: "tenant", Bits: 16}},
				Ops: []p4.Op{
					{Kind: p4.OpRemoveHeader, Dst: "vxlan.flags"},
					{Kind: p4.OpCopyField, Dst: "ipv4.src_addr", Srcs: []p4.FieldRef{"ipv4.src_addr"}},
					{Kind: p4.OpSetField, Dst: "sfc.context"},
				},
			},
			{Name: "drop_unknown_vni", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "sfc.flags"}}},
		},
		DefaultAction: "drop_unknown_vni",
		Size:          4096,
	}
	encap := &p4.Table{
		Name: "encap_table",
		Keys: []p4.Key{{Field: "ipv4.dst_addr", Kind: p4.MatchExact}},
		Actions: []*p4.Action{
			{
				Name:   "vxlan_encap",
				Params: []p4.Field{{Name: "vni", Bits: 24}, {Name: "remote", Bits: 32}, {Name: "next_mac", Bits: 48}},
				Ops: []p4.Op{
					{Kind: p4.OpAddHeader, Dst: "vxlan.vni"},
					{Kind: p4.OpSetField, Dst: "vxlan.vni"},
					{Kind: p4.OpSetField, Dst: "udp.dst_port"},
					{Kind: p4.OpSetField, Dst: "ipv4.dst_addr"},
					{Kind: p4.OpSetField, Dst: "ipv4.src_addr"},
				},
			},
			{Name: "pass", Ops: []p4.Op{{Kind: p4.OpNoop}}},
		},
		DefaultAction: "pass",
		Size:          4096,
	}
	return &p4.ControlBlock{
		Name:   "VGW_control",
		Tables: []*p4.Table{vni, encap},
		Body: []p4.Stmt{
			p4.IfStmt{
				Cond: p4.Cond{Kind: p4.CondValid, Header: "vxlan"},
				Then: []p4.Stmt{p4.ApplyStmt{Table: "vni_table"}},
				Else: []p4.Stmt{p4.ApplyStmt{Table: "encap_table"}},
			},
		},
	}
})

// Parser implements NF: the VGW needs the full VXLAN parse graph.
func (v *VGW) Parser() *p4.ParserGraph { return p4.VXLANParser() }
