package nf

import (
	"encoding/binary"
	"fmt"

	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// LoadBalancer is the paper's Fig. 4 L4 load balancer: the CRC32 hash
// of a packet's 5-tuple selects a session entry that rewrites the
// destination IP to a backend server; a miss raises the toCpu flag so
// the control plane can install a new session and reinject the packet.
type LoadBalancer struct {
	sessions *mau.ExactTable
	// vips maps virtual IPs to their backend pools (one action
	// parameter per backend): matched per packet, and read by the
	// control plane when establishing new sessions.
	vips *mau.ExactTable
}

// NewLoadBalancer creates a load balancer with the given session table
// capacity (0 = unbounded).
func NewLoadBalancer(sessionCapacity int) *LoadBalancer {
	return &LoadBalancer{
		sessions: mau.NewExactTable(sessionCapacity),
		vips:     mau.NewExactTable(0),
	}
}

// Name implements NF.
func (lb *LoadBalancer) Name() string { return "lb" }

// AddVIP registers a virtual IP with its backend pool.
func (lb *LoadBalancer) AddVIP(vip packet.IP4, backends []packet.IP4) error {
	if len(backends) == 0 {
		return fmt.Errorf("nf: VIP %s has no backends", vip)
	}
	pool := make([]uint64, len(backends))
	for i, b := range backends {
		pool[i] = uint64(b.Uint32())
	}
	return lb.vips.Insert(vip[:], mau.Entry{Action: "vip", Params: pool})
}

// Backends returns the backend pool of a VIP.
func (lb *LoadBalancer) Backends(vip packet.IP4) []packet.IP4 {
	pool, _ := lb.vips.Lookup(vip[:])
	var out []packet.IP4
	for i := 0; i < pool.Len(); i++ {
		out = append(out, packet.IP4FromUint32(uint32(pool.Param(i))))
	}
	return out
}

// IsVIP reports whether dst is a registered virtual IP.
func (lb *LoadBalancer) IsVIP(dst packet.IP4) bool { return lb.vips.Has(dst[:]) }

// InstallSession maps a session hash to a backend — the control
// plane's "install a new session in lb_session upon packet reception"
// step (§3.1).
func (lb *LoadBalancer) InstallSession(hash uint32, backend packet.IP4) error {
	key := u32Key(hash)
	return lb.sessions.Insert(key[:], mau.Entry{Action: "modify_dstIp", Params: []uint64{uint64(backend.Uint32())}})
}

// Sessions returns the number of installed sessions.
func (lb *LoadBalancer) Sessions() int { return lb.sessions.Len() }

// SelectBackend deterministically picks a backend for a session hash,
// the policy the control plane applies on a miss.
func (lb *LoadBalancer) SelectBackend(vip packet.IP4, hash uint32) (packet.IP4, error) {
	pool, _ := lb.vips.Lookup(vip[:])
	if pool.Len() == 0 {
		return packet.IP4{}, fmt.Errorf("nf: no backends for VIP %s", vip)
	}
	return packet.IP4FromUint32(uint32(pool.Param(int(hash) % pool.Len()))), nil
}

// Execute implements NF (compare the paper's Fig. 4: compute the
// 5-tuple hash, look up lb_session, rewrite on hit, toCpu on miss).
// Traffic whose destination is not a registered VIP passes through.
//
//dv:hotpath
func (lb *LoadBalancer) Execute(hdr *packet.Parsed) {
	k0, k1, ok := hdr.FlowWords()
	if !ok || !lb.vips.Has(hdr.IPv4.Dst[:]) {
		return
	}
	key := u32Key(packet.FlowHash(k0, k1))
	if s, hit := lb.sessions.Lookup(key[:]); hit {
		binary.BigEndian.PutUint32(hdr.IPv4.Dst[:], uint32(s.Param(0)))
		return
	}
	hdr.SFC.Meta.Set(nsh.FlagToCPU)
}

// Block implements NF; it is a direct transcription of Fig. 4.
func (lb *LoadBalancer) Block() *p4.ControlBlock { return lbBlock() }

var lbBlock = p4.SharedControl(func() *p4.ControlBlock {
	hash := &p4.Table{
		Name: "compute_five_tuple_hash",
		Actions: []*p4.Action{{
			Name: "computeFiveTupleHash",
			Ops: []p4.Op{{Kind: p4.OpHash, Dst: "meta.session_hash", Srcs: []p4.FieldRef{
				"ipv4.src_addr", "ipv4.dst_addr", "ipv4.protocol", "tcp.src_port", "tcp.dst_port",
			}}},
		}},
		DefaultAction: "computeFiveTupleHash",
	}
	session := &p4.Table{
		Name: "lb_session",
		Keys: []p4.Key{{Field: "meta.session_hash", Kind: p4.MatchExact}},
		Actions: []*p4.Action{
			{
				Name:   "modify_dstIp",
				Params: []p4.Field{{Name: "dip", Bits: 32}},
				Ops:    []p4.Op{{Kind: p4.OpSetField, Dst: "ipv4.dst_addr"}},
			},
			{Name: "toCpu", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "sfc.flags"}}},
		},
		DefaultAction: "toCpu",
		Size:          65536,
	}
	return &p4.ControlBlock{
		Name:   "LB_control",
		Tables: []*p4.Table{hash, session},
		Body: []p4.Stmt{
			p4.ApplyStmt{Table: "compute_five_tuple_hash"},
			p4.ApplyStmt{Table: "lb_session"},
		},
	}
})

// Parser implements NF.
func (lb *LoadBalancer) Parser() *p4.ParserGraph { return p4.SFCIPv4Parser() }
