package nf

import (
	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// Router is the chain's exit NF (Fig. 2): an IPv4 longest-prefix-match
// router with next-hop MAC rewrite and TTL handling. As the paper's §3
// specifies, the Router also removes the SFC header before the packet
// leaves the switch. The framework supplies it for all SFC paths.
type Router struct {
	// routes carries each prefix's adjacency in its action parameters
	// (port, destination MAC, source MAC), so a route and its next hop
	// are published — and replaced — as one entry.
	routes *mau.LPM32
}

// NextHop describes one adjacency.
type NextHop struct {
	Port   uint16 // egress port in the SFC platform metadata space
	DstMAC packet.MAC
	SrcMAC packet.MAC
}

// NewRouter creates an empty router.
func NewRouter() *Router {
	return &Router{routes: mau.NewLPM32()}
}

// Name implements NF.
func (r *Router) Name() string { return "router" }

// AddRoute installs prefix/plen -> nh.
func (r *Router) AddRoute(prefix packet.IP4, plen int, nh NextHop) error {
	return r.routes.Insert(prefix.Uint32(), plen, mau.Entry{
		Action: "forward",
		Params: []uint64{uint64(nh.Port), macParam(nh.DstMAC), macParam(nh.SrcMAC)},
	})
}

// Routes returns the number of installed prefixes.
func (r *Router) Routes() int { return r.routes.Len() }

// Execute implements NF.
//
//dv:hotpath
func (r *Router) Execute(hdr *packet.Parsed) {
	// The router terminates the service chain: strip the SFC header
	// from the wire format (flags in the struct stay readable for the
	// framework's check_sfcFlags step).
	hdr.PopSFC()

	if hdr.Valid(packet.HdrARP) {
		hdr.SFC.Meta.Set(nsh.FlagToCPU)
		return
	}
	if !hdr.Valid(packet.HdrIPv4) {
		hdr.SFC.Meta.Set(nsh.FlagDrop)
		return
	}
	if hdr.IPv4.TTL <= 1 {
		hdr.SFC.Meta.Set(nsh.FlagDrop)
		return
	}
	e, ok := r.routes.Lookup(hdr.IPv4.Dst.Uint32())
	if !ok {
		hdr.SFC.Meta.Set(nsh.FlagToCPU) // no route: punt for ICMP unreachable
		return
	}
	putMAC(&hdr.Eth.Dst, e.Params[1])
	putMAC(&hdr.Eth.Src, e.Params[2])
	hdr.IPv4.TTL--
	hdr.SFC.Meta.OutPort = uint16(e.Params[0])
}

// Block implements NF.
func (r *Router) Block() *p4.ControlBlock { return routerBlock() }

var routerBlock = p4.SharedControl(func() *p4.ControlBlock {
	lpm := &p4.Table{
		Name: "ipv4_lpm",
		Keys: []p4.Key{{Field: "ipv4.dst_addr", Kind: p4.MatchLPM}},
		Actions: []*p4.Action{
			{
				Name:   "forward",
				Params: []p4.Field{{Name: "nh_id", Bits: 16}},
				Ops: []p4.Op{
					{Kind: p4.OpSetField, Dst: "ethernet.dst_addr"},
					{Kind: p4.OpSetField, Dst: "ethernet.src_addr"},
					{Kind: p4.OpAddToField, Dst: "ipv4.ttl"},
					{Kind: p4.OpSetField, Dst: "sfc.out_port"},
					{Kind: p4.OpRemoveHeader, Dst: "sfc.service_path_id"},
				},
			},
			{Name: "to_cpu", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "sfc.flags"}}},
		},
		DefaultAction: "to_cpu",
		// 8K prefixes: a realistic edge FIB that fits one stage's TCAM
		// (16 of 24 blocks); larger FIBs would split across stages.
		Size: 8192,
	}
	ttl := &p4.Table{
		Name: "ttl_check",
		Keys: []p4.Key{{Field: "ipv4.ttl", Kind: p4.MatchExact}},
		Actions: []*p4.Action{
			{Name: "drop_expired", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "sfc.flags"}}},
			{Name: "pass", Ops: []p4.Op{{Kind: p4.OpNoop}}},
		},
		DefaultAction: "pass",
		Size:          2,
	}
	return &p4.ControlBlock{
		Name:   "Router_control",
		Tables: []*p4.Table{ttl, lpm},
		Body: []p4.Stmt{
			p4.ApplyStmt{Table: "ttl_check"},
			p4.IfStmt{
				Cond: p4.Cond{Kind: p4.CondValid, Header: "ipv4"},
				Then: []p4.Stmt{p4.ApplyStmt{Table: "ipv4_lpm"}},
			},
		},
	}
})

// Parser implements NF: the router handles both IP and ARP.
func (r *Router) Parser() *p4.ParserGraph { return routerParser() }

// routerParser is the router's SFC+ARP fragment, merged once per
// process and shared.
var routerParser = p4.SharedParser(func() *p4.ParserGraph {
	merged, err := p4.MergeParsers(p4.NewGlobalIDTable(), p4.SFCIPv4Parser(), p4.ARPParser())
	if err != nil {
		panic(err) // static graphs: cannot conflict
	}
	return merged
})
