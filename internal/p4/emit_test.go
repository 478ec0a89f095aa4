package p4

import (
	"strings"
	"testing"
)

func TestEmitHeaderType(t *testing.T) {
	src := EmitHeaderType(HdrIPv4)
	for _, want := range []string{
		"header ipv4_t {",
		"bit<32> src_addr;",
		"bit<32> dst_addr;",
		"bit<8> ttl;",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted header missing %q:\n%s", want, src)
		}
	}
}

func TestEmitParserStates(t *testing.T) {
	src := EmitParser("generic", SFCIPv4Parser())
	for _, want := range []string{
		"parser generic(packet_in pkt, out all_headers_t hdr)",
		"state start",
		"state parse_ethernet_at_0",
		"pkt.extract(hdr.ethernet_at_0);",
		"transition select(hdr.ethernet_ether_type)",
		"0x894f: parse_sfc_at_14;",
		"state parse_ipv4_at_34",
		"default: accept;",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted parser missing %q:\n%s", want, src)
		}
	}
}

func TestEmitParserOffsetsDistinguishVertices(t *testing.T) {
	// The merged classifier parser has IPv4 at both offsets: the
	// emitter must produce distinct states.
	src := EmitParser("cls", ClassifierParser())
	if !strings.Contains(src, "parse_ipv4_at_14") || !strings.Contains(src, "parse_ipv4_at_34") {
		t.Errorf("emitted parser does not distinguish ipv4 offsets:\n%s", src)
	}
}

func TestEmitControlFig4(t *testing.T) {
	// The LB block of Fig. 4 must render with its hash, session table,
	// actions and apply order.
	cb := makeLBBlock()
	src := EmitControl(cb)
	for _, want := range []string{
		"control LB_control(inout all_headers_t hdr)",
		"action modify_dstIp(bit<32> dip)",
		"action toCpu()",
		"table lb_session",
		"hdr.meta_session_hash : exact;",
		"const default_action = toCpu();",
		"size = 65536;",
		"compute_hash.apply();",
		"lb_session.apply();",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted control missing %q:\n%s", want, src)
		}
	}
}

func TestEmitControlConditionals(t *testing.T) {
	tbl := &Table{Name: "t", Actions: []*Action{{Name: "a", Ops: []Op{{Kind: OpNoop}}}}}
	cb := &ControlBlock{
		Name:   "cond",
		Tables: []*Table{tbl},
		Body: []Stmt{
			IfStmt{
				Cond: Cond{Kind: CondFieldEq, Field: "meta.next_nf", Value: 3},
				Then: []Stmt{ApplyStmt{Table: "t"}},
				Else: []Stmt{ApplyStmt{Table: "t"}},
			},
			IfStmt{
				Cond: Cond{Kind: CondValid, Header: "vxlan"},
				Then: []Stmt{ApplyStmt{Table: "t"}},
			},
			IfStmt{
				Cond: Cond{Kind: CondFieldNeq, Field: "meta.class_id", Value: 9},
				Then: []Stmt{ApplyStmt{Table: "t"}},
			},
		},
	}
	src := EmitControl(cb)
	for _, want := range []string{
		"if (hdr.meta_next_nf == 3)",
		"} else {",
		"if (hdr.vxlan.isValid())",
		"if (hdr.meta_class_id != 9)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted control missing %q:\n%s", want, src)
		}
	}
}

func TestEmitActionOpsAndMatchKinds(t *testing.T) {
	tbl := &Table{
		Name: "t",
		Keys: []Key{
			{Field: "ipv4.dst_addr", Kind: MatchLPM},
			{Field: "ipv4.src_addr", Kind: MatchTernary},
			{Field: "tcp.dst_port", Kind: MatchRange},
		},
		Actions: []*Action{{
			Name:   "everything",
			Params: []Field{{Name: "port", Bits: 12}},
			Ops: []Op{
				{Kind: OpSetField, Dst: "meta.out_port"},
				{Kind: OpCopyField, Dst: "meta.drop", Srcs: []FieldRef{"sfc.flags"}},
				{Kind: OpAddToField, Dst: "ipv4.ttl"},
				{Kind: OpAddHeader, Dst: "vxlan.vni"},
				{Kind: OpRemoveHeader, Dst: "sfc.service_path_id"},
				{Kind: OpHash, Dst: "meta.session_hash", Srcs: []FieldRef{"ipv4.src_addr", "ipv4.dst_addr"}},
				{Kind: OpCount},
			},
		}},
	}
	src := EmitControl(&ControlBlock{Name: "ops", Tables: []*Table{tbl}, Body: []Stmt{ApplyStmt{Table: "t"}}})
	for _, want := range []string{
		"hdr.ipv4_dst_addr : lpm;",
		"hdr.ipv4_src_addr : ternary;",
		"hdr.tcp_dst_port : range;",
		"action everything(bit<12> port)",
		"hdr.meta_out_port = port;",
		"hdr.meta_drop = hdr.sfc_flags;",
		"hdr.ipv4_ttl = hdr.ipv4_ttl + 1;",
		"hdr.vxlan.setValid();",
		"hdr.sfc.setInvalid();",
		"hdr.meta_session_hash = hash({hdr.ipv4_src_addr, hdr.ipv4_dst_addr});",
		"counter.count();",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted control missing %q:\n%s", want, src)
		}
	}
}

func TestEmitProgram(t *testing.T) {
	p := &Program{
		Name:   "dejavu_pipe0",
		Parser: SFCIPv4Parser(),
		Blocks: []*ControlBlock{makeLBBlock()},
	}
	src, err := EmitProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"// Program dejavu_pipe0",
		"header ethernet_t",
		"header sfc_t",
		"parser dejavu_pipe0_parser",
		"control LB_control",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("program missing %q", want)
		}
	}
	// Invalid programs are rejected.
	bad := &Program{Name: "bad"}
	if _, err := EmitProgram(bad); err == nil {
		t.Error("invalid program emitted")
	}
}

func TestEmitDeterministic(t *testing.T) {
	p := &Program{Name: "d", Parser: VXLANParser(), Blocks: []*ControlBlock{makeLBBlock()}}
	a, err := EmitProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmitProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("emission not deterministic")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"lb_session":   "lb_session",
		"lb/session":   "lb_session",
		"9table":       "_9table",
		"a.b-c":        "a_b_c",
		"ingress 0":    "ingress_0",
		"check-flags!": "check_flags_",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
