package nf

import (
	"encoding/binary"

	"dejavu/internal/mau"
	"dejavu/internal/nsh"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// The NAT and Mirror NFs are not part of the paper's 5-NF prototype
// chain; they exercise the composition and placement machinery with
// longer chains (§3.3 "the SFC policy may contain complex NFs in a
// long chain") and the ablation benchmarks.

// KeyMirrorPort is the SFC context key under which the Mirror NF
// records the mirror destination port.
const KeyMirrorPort uint8 = 6

// NAT is a source NAT: established flows are translated by an exact
// session table; unknown flows are punted to the control plane for
// address/port allocation, like the LB's session-miss path.
type NAT struct {
	sessions   *mau.ExactTable // key: srcIP, srcPort, proto
	PublicIP   packet.IP4
	reverseTbl *mau.ExactTable // key: publicPort, proto -> original src IP<<16 | src port (for reverse path)
}

// NewNAT creates a NAT that translates to publicIP.
func NewNAT(publicIP packet.IP4, sessionCapacity int) *NAT {
	return &NAT{
		sessions:   mau.NewExactTable(sessionCapacity),
		PublicIP:   publicIP,
		reverseTbl: mau.NewExactTable(sessionCapacity),
	}
}

// Name implements NF.
func (n *NAT) Name() string { return "nat" }

// natKeyLen is the session key layout: srcIP(4) srcPort(2) proto(1).
const natKeyLen = 7

// natKey builds the session key from a flow's word-form key
// (packet.Parsed.FlowWords) in one store; the key is its first
// natKeyLen bytes.
func natKey(k0, k1 uint64) (key [8]byte) {
	binary.LittleEndian.PutUint64(key[:], uint64(uint32(k0))|(k1&0xFFFF00)<<24|(k1&0xFF)<<48)
	return key
}

// natTupleKey is natKey of a control-plane (src, port, proto) triple.
func natTupleKey(src packet.IP4, port uint16, proto uint8) [8]byte {
	return natKey(packet.FiveTuple{Src: src, SrcPort: port, Proto: proto}.Words())
}

// InstallMapping installs a translation (src,port,proto) -> publicPort
// in both directions or in neither. The reverse entry goes in first:
// its key is a public port the caller hands out once, so taking it back
// out when the forward insert fails undoes exactly what was done (the
// forward key may be a replace, which a delete could not undo).
func (n *NAT) InstallMapping(src packet.IP4, srcPort uint16, proto uint8, publicPort uint16) error {
	rev := [3]byte{byte(publicPort >> 8), byte(publicPort), proto}
	if err := n.reverseTbl.Insert(rev[:], mau.Entry{
		Action: "untranslate",
		Params: []uint64{uint64(src.Uint32())<<16 | uint64(srcPort)},
	}); err != nil {
		return err
	}
	key := natTupleKey(src, srcPort, proto)
	if err := n.sessions.Insert(key[:natKeyLen], mau.Entry{Action: "translate", Params: []uint64{uint64(publicPort)}}); err != nil {
		n.reverseTbl.Delete(rev[:])
		return err
	}
	return nil
}

// HasMapping reports whether (src,port,proto) has a translation.
func (n *NAT) HasMapping(src packet.IP4, srcPort uint16, proto uint8) bool {
	key := natTupleKey(src, srcPort, proto)
	return n.sessions.Has(key[:natKeyLen])
}

// Mappings returns the number of installed translations.
func (n *NAT) Mappings() int { return n.sessions.Len() }

// Execute implements NF: translate the source of outbound flows.
//
//dv:hotpath
func (n *NAT) Execute(hdr *packet.Parsed) {
	k0, k1, ok := hdr.FlowWords()
	if !ok {
		return
	}
	key := natKey(k0, k1)
	e, hit := n.sessions.Lookup(key[:natKeyLen])
	if !hit {
		hdr.SFC.Meta.Set(nsh.FlagToCPU)
		return
	}
	pub := uint16(e.Param(0))
	hdr.IPv4.Src = n.PublicIP
	switch {
	case hdr.Valid(packet.HdrTCP):
		hdr.TCP.SrcPort = pub
	case hdr.Valid(packet.HdrUDP):
		hdr.UDP.SrcPort = pub
	}
}

// Block implements NF.
func (n *NAT) Block() *p4.ControlBlock { return natBlock() }

var natBlock = p4.SharedControl(func() *p4.ControlBlock {
	tbl := &p4.Table{
		Name: "nat_session",
		Keys: []p4.Key{
			{Field: "ipv4.src_addr", Kind: p4.MatchExact},
			{Field: "tcp.src_port", Kind: p4.MatchExact},
			{Field: "ipv4.protocol", Kind: p4.MatchExact},
		},
		Actions: []*p4.Action{
			{
				Name:   "translate",
				Params: []p4.Field{{Name: "public_port", Bits: 16}},
				Ops: []p4.Op{
					{Kind: p4.OpSetField, Dst: "ipv4.src_addr"},
					{Kind: p4.OpSetField, Dst: "tcp.src_port"},
					{Kind: p4.OpSetField, Dst: "udp.src_port"},
				},
			},
			{Name: "toCpu", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "sfc.flags"}}},
		},
		DefaultAction: "toCpu",
		Size:          32768,
	}
	return &p4.ControlBlock{
		Name:   "NAT_control",
		Tables: []*p4.Table{tbl},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "nat_session"}},
	}
})

// Parser implements NF.
func (n *NAT) Parser() *p4.ParserGraph { return p4.SFCIPv4Parser() }

// Mirror duplicates selected flows to a tap port via the SFC mirror
// flag; the framework maps the flag plus the context port to a
// platform mirror action.
type Mirror struct {
	taps *mau.TernaryTable
}

// NewMirror creates a mirror NF.
func NewMirror() *Mirror { return &Mirror{taps: mau.NewTernaryTable()} }

// Name implements NF.
func (m *Mirror) Name() string { return "mirror" }

// AddTap mirrors traffic matching dst/mask to tapPort.
func (m *Mirror) AddTap(dst, mask packet.IP4, tapPort uint16, priority int) error {
	return m.taps.Insert(dst[:], mask[:], priority, mau.Entry{
		Action: "mirror",
		Params: []uint64{uint64(tapPort)},
	})
}

// Taps returns the number of installed taps.
func (m *Mirror) Taps() int { return m.taps.Len() }

// ContextReads implements ContextUser: the mirror reads nothing.
func (m *Mirror) ContextReads() []uint8 { return nil }

// ContextWrites implements ContextUser: the tap port is handed to the
// framework's check_sfcFlags through the context area.
func (m *Mirror) ContextWrites() []uint8 { return []uint8{KeyMirrorPort} }

// Execute implements NF.
//
//dv:hotpath
func (m *Mirror) Execute(hdr *packet.Parsed) {
	if !hdr.Valid(packet.HdrIPv4) {
		return
	}
	if e, ok := m.taps.Lookup(hdr.IPv4.Dst[:]); ok {
		hdr.SFC.Meta.Set(nsh.FlagMirror)
		hdr.SFC.SetContext(KeyMirrorPort, uint16(e.Params[0]))
	}
}

// Block implements NF.
func (m *Mirror) Block() *p4.ControlBlock { return mirrorBlock() }

var mirrorBlock = p4.SharedControl(func() *p4.ControlBlock {
	tbl := &p4.Table{
		Name: "mirror_taps",
		Keys: []p4.Key{{Field: "ipv4.dst_addr", Kind: p4.MatchTernary}},
		Actions: []*p4.Action{
			{
				Name:   "mirror",
				Params: []p4.Field{{Name: "tap_port", Bits: 16}},
				Ops: []p4.Op{
					{Kind: p4.OpSetField, Dst: "sfc.flags"},
					{Kind: p4.OpSetField, Dst: "sfc.context"},
				},
			},
			{Name: "pass", Ops: []p4.Op{{Kind: p4.OpNoop}}},
		},
		DefaultAction: "pass",
		Size:          512,
	}
	return &p4.ControlBlock{
		Name:   "Mirror_control",
		Tables: []*p4.Table{tbl},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "mirror_taps"}},
	}
})

// Parser implements NF.
func (m *Mirror) Parser() *p4.ParserGraph { return p4.SFCIPv4Parser() }
