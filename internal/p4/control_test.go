package p4

import (
	"testing"
)

// makeLBBlock reproduces the paper's Fig. 4 load balancer: a hash
// computation feeding a session table.
func makeLBBlock() *ControlBlock {
	hash := &Table{
		Name: "compute_hash",
		Actions: []*Action{{
			Name: "compute",
			Ops: []Op{{Kind: OpHash, Dst: "meta.session_hash", Srcs: []FieldRef{
				"ipv4.src_addr", "ipv4.dst_addr", "ipv4.protocol", "tcp.src_port", "tcp.dst_port",
			}}},
		}},
		DefaultAction: "compute",
	}
	session := &Table{
		Name: "lb_session",
		Keys: []Key{{Field: "meta.session_hash", Kind: MatchExact}},
		Actions: []*Action{
			{Name: "modify_dstIp", Params: []Field{{"dip", 32}}, Ops: []Op{{Kind: OpSetField, Dst: "ipv4.dst_addr"}}},
			{Name: "toCpu", Ops: []Op{{Kind: OpSetField, Dst: "meta.to_cpu"}}},
		},
		DefaultAction: "toCpu",
		Size:          65536,
	}
	return &ControlBlock{
		Name:   "LB_control",
		Tables: []*Table{hash, session},
		Body:   []Stmt{ApplyStmt{Table: "compute_hash"}, ApplyStmt{Table: "lb_session"}},
	}
}

func TestControlBlockValidate(t *testing.T) {
	cb := makeLBBlock()
	if err := cb.Validate(); err != nil {
		t.Fatalf("LB block invalid: %v", err)
	}
	order, err := cb.AppliedOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "compute_hash" || order[1].Name != "lb_session" {
		t.Errorf("AppliedOrder = %v", order)
	}
}

func TestControlBlockValidateErrors(t *testing.T) {
	missing := &ControlBlock{Name: "bad", Body: []Stmt{ApplyStmt{Table: "ghost"}}}
	if err := missing.Validate(); err == nil {
		t.Error("block applying unknown table validated")
	}
	unresolved := &ControlBlock{Name: "bad2", Body: []Stmt{CallStmt{Block: "other"}}}
	if err := unresolved.Validate(); err == nil {
		t.Error("block with unresolved call validated")
	}
	dup := &ControlBlock{
		Name: "dup",
		Tables: []*Table{
			{Name: "t", Actions: []*Action{{Name: "a"}}},
			{Name: "t", Actions: []*Action{{Name: "a"}}},
		},
	}
	if err := dup.Validate(); err == nil {
		t.Error("block with duplicate tables validated")
	}
	if err := (&ControlBlock{}).Validate(); err == nil {
		t.Error("anonymous block validated")
	}
}

func TestDepsMatchDependency(t *testing.T) {
	// Fig 4 structure: lb_session matches meta.session_hash, which
	// compute_hash writes -> match dependency, separate stages.
	cb := makeLBBlock()
	deps, err := cb.Deps()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 {
		t.Fatalf("Deps = %v, want exactly 1", deps)
	}
	d := deps[0]
	if d.From != "compute_hash" || d.To != "lb_session" || d.Kind != DepMatch {
		t.Errorf("dep = %+v", d)
	}
}

func TestDepsGuardReads(t *testing.T) {
	// A table inside an If whose condition reads a field written by an
	// earlier table has a match dependency through the gateway.
	setter := &Table{
		Name:          "classify",
		Actions:       []*Action{{Name: "set", Ops: []Op{{Kind: OpSetField, Dst: "meta.class_id"}}}},
		DefaultAction: "set",
	}
	guarded := &Table{
		Name:    "special",
		Keys:    []Key{{Field: "ipv4.dst_addr", Kind: MatchExact}},
		Actions: []*Action{{Name: "fwd", Ops: []Op{{Kind: OpSetField, Dst: "meta.out_port"}}}},
	}
	cb := &ControlBlock{
		Name:   "guard_test",
		Tables: []*Table{setter, guarded},
		Body: []Stmt{
			ApplyStmt{Table: "classify"},
			IfStmt{
				Cond: Cond{Kind: CondFieldEq, Field: "meta.class_id", Value: 1},
				Then: []Stmt{ApplyStmt{Table: "special"}},
			},
		},
	}
	deps, err := cb.Deps()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0].Kind != DepMatch {
		t.Errorf("Deps = %v, want one match dep via gateway", deps)
	}
}

func TestDepsSuccessorOnly(t *testing.T) {
	// Two data-independent tables, the second guarded by a condition
	// unrelated to the first: successor dependency.
	first := &Table{
		Name:          "acl",
		Keys:          []Key{{Field: "tcp.dst_port", Kind: MatchExact}},
		Actions:       []*Action{{Name: "permit", Ops: []Op{{Kind: OpNoop}}}},
		DefaultAction: "permit",
	}
	second := &Table{
		Name:    "count",
		Keys:    []Key{{Field: "ipv4.src_addr", Kind: MatchExact}},
		Actions: []*Action{{Name: "bump", Ops: []Op{{Kind: OpCount}}}},
	}
	cb := &ControlBlock{
		Name:   "succ_test",
		Tables: []*Table{first, second},
		Body: []Stmt{
			ApplyStmt{Table: "acl"},
			IfStmt{
				Cond: Cond{Kind: CondValid, Header: "ipv4"},
				Then: []Stmt{ApplyStmt{Table: "count"}},
			},
		},
	}
	deps, err := cb.Deps()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0].Kind != DepSuccessor {
		t.Errorf("Deps = %v, want one successor dep", deps)
	}
}

func TestDepsIndependentTables(t *testing.T) {
	a := &Table{
		Name:    "a",
		Keys:    []Key{{Field: "tcp.dst_port", Kind: MatchExact}},
		Actions: []*Action{{Name: "x", Ops: []Op{{Kind: OpCount}}}},
	}
	b := &Table{
		Name:    "b",
		Keys:    []Key{{Field: "udp.dst_port", Kind: MatchExact}},
		Actions: []*Action{{Name: "y", Ops: []Op{{Kind: OpCount}}}},
	}
	cb := &ControlBlock{
		Name:   "indep",
		Tables: []*Table{a, b},
		Body:   []Stmt{ApplyStmt{Table: "a"}, ApplyStmt{Table: "b"}},
	}
	deps, err := cb.Deps()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 0 {
		t.Errorf("Deps = %v, want none", deps)
	}
}

func TestSortDepsDeterministic(t *testing.T) {
	deps := []Dep{
		{From: "b", To: "c", Kind: DepAction},
		{From: "a", To: "c", Kind: DepMatch},
		{From: "a", To: "b", Kind: DepSuccessor},
		{From: "a", To: "c", Kind: DepAction},
	}
	SortDeps(deps)
	if deps[0].From != "a" || deps[0].To != "b" {
		t.Errorf("sorted[0] = %+v", deps[0])
	}
	// Same From/To: strictest (lowest) kind first.
	if deps[1].Kind != DepMatch || deps[2].Kind != DepAction {
		t.Errorf("kind ordering: %+v %+v", deps[1], deps[2])
	}
}

func TestGatewayCount(t *testing.T) {
	c1 := Cond{Kind: CondFieldEq, Field: "meta.next_nf", Value: 1}
	c2 := Cond{Kind: CondFieldEq, Field: "meta.next_nf", Value: 2}
	tbl := &Table{Name: "t", Actions: []*Action{{Name: "a"}}}
	cb := &ControlBlock{
		Name:   "gw",
		Tables: []*Table{tbl},
		Body: []Stmt{
			IfStmt{Cond: c1, Then: []Stmt{ApplyStmt{Table: "t"}}},
			IfStmt{Cond: c2, Then: []Stmt{
				IfStmt{Cond: c1, Then: []Stmt{ApplyStmt{Table: "t"}}}, // repeated cond
			}},
		},
	}
	if got := cb.GatewayCount(); got != 2 {
		t.Errorf("GatewayCount = %d, want 2", got)
	}
}

func TestCondReads(t *testing.T) {
	if refs := (Cond{Kind: CondFieldEq, Field: "a.b"}).Reads(); len(refs) != 1 || refs[0] != "a.b" {
		t.Errorf("Reads = %v", refs)
	}
	if refs := (Cond{Kind: CondValid, Header: "ipv4"}).Reads(); len(refs) != 0 {
		t.Errorf("CondValid Reads = %v, want none", refs)
	}
}

func TestProgramValidate(t *testing.T) {
	p := &Program{
		Name:   "lb_prog",
		Parser: SFCIPv4Parser(),
		Blocks: []*ControlBlock{makeLBBlock()},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	if err := (&Program{Name: "np"}).Validate(); err == nil {
		t.Error("program without parser validated")
	}
	dup := &Program{
		Name:   "dup",
		Parser: SFCIPv4Parser(),
		Blocks: []*ControlBlock{makeLBBlock(), makeLBBlock()},
	}
	if err := dup.Validate(); err == nil {
		t.Error("program with duplicate block names validated")
	}
}

func TestTableMaxActionOps(t *testing.T) {
	tb := &Table{
		Name: "t",
		Actions: []*Action{
			{Name: "small", Ops: []Op{{Kind: OpNoop}}},
			{Name: "big", Ops: []Op{{Kind: OpSetField, Dst: "a.b"}, {Kind: OpSetField, Dst: "c.d"}, {Kind: OpCount}}},
		},
	}
	if got := tb.MaxActionOps(); got != 3 {
		t.Errorf("MaxActionOps = %d, want 3", got)
	}
}
