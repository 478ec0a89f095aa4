package compiler

import (
	"reflect"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/mau"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// chainOfWriters builds n tables where each matches the field the
// previous one writes, forcing n separate stages.
func chainOfWriters(n int) *p4.ControlBlock {
	cb := &p4.ControlBlock{Name: "chain"}
	for i := 0; i < n; i++ {
		name := "t" + string(rune('a'+i))
		t := &p4.Table{
			Name: name,
			Actions: []*p4.Action{{
				Name: "w",
				Ops:  []p4.Op{{Kind: p4.OpSetField, Dst: p4.FieldRef("meta.class_id")}},
			}},
		}
		if i > 0 {
			t.Keys = []p4.Key{{Field: "meta.class_id", Kind: p4.MatchExact}}
		}
		cb.Tables = append(cb.Tables, t)
		cb.Body = append(cb.Body, p4.ApplyStmt{Table: name})
	}
	return cb
}

func TestAllocateChainNeedsNStages(t *testing.T) {
	cb := chainOfWriters(4)
	plan, err := Allocate(cb, 12)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StagesUsed() != 4 {
		t.Fatalf("StagesUsed = %d, want 4\n%s", plan.StagesUsed(), plan)
	}
	for i, name := range []string{"ta", "tb", "tc", "td"} {
		if plan.TableStage[name] != i {
			t.Errorf("stage[%s] = %d, want %d", name, plan.TableStage[name], i)
		}
	}
}

func TestAllocateFailsWhenTooFewStages(t *testing.T) {
	cb := chainOfWriters(5)
	if _, err := Allocate(cb, 4); err == nil {
		t.Error("5-deep chain fit in 4 stages")
	}
	if !strings.Contains(mustErr(Allocate(cb, 4)).Error(), "does not fit") {
		t.Error("unhelpful error message")
	}
}

func mustErr(_ *Plan, err error) error { return err }

func TestAllocateIndependentTablesShareStage(t *testing.T) {
	a := &p4.Table{
		Name:    "a",
		Keys:    []p4.Key{{Field: "tcp.dst_port", Kind: p4.MatchExact}},
		Actions: []*p4.Action{{Name: "x", Ops: []p4.Op{{Kind: p4.OpCount}}}},
	}
	b := &p4.Table{
		Name:    "b",
		Keys:    []p4.Key{{Field: "udp.dst_port", Kind: p4.MatchExact}},
		Actions: []*p4.Action{{Name: "y", Ops: []p4.Op{{Kind: p4.OpCount}}}},
	}
	cb := &p4.ControlBlock{
		Name:   "indep",
		Tables: []*p4.Table{a, b},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "a"}, p4.ApplyStmt{Table: "b"}},
	}
	plan, err := Allocate(cb, 12)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StagesUsed() != 1 {
		t.Errorf("StagesUsed = %d, want 1 (independent tables share)\n%s", plan.StagesUsed(), plan)
	}
}

func TestAllocateSuccessorSharesStage(t *testing.T) {
	first := &p4.Table{
		Name:          "acl",
		Keys:          []p4.Key{{Field: "tcp.dst_port", Kind: p4.MatchExact}},
		Actions:       []*p4.Action{{Name: "permit", Ops: []p4.Op{{Kind: p4.OpNoop}}}},
		DefaultAction: "permit",
	}
	second := &p4.Table{
		Name:    "count",
		Keys:    []p4.Key{{Field: "ipv4.src_addr", Kind: p4.MatchExact}},
		Actions: []*p4.Action{{Name: "bump", Ops: []p4.Op{{Kind: p4.OpCount}}}},
	}
	cb := &p4.ControlBlock{
		Name:   "succ",
		Tables: []*p4.Table{first, second},
		Body: []p4.Stmt{
			p4.ApplyStmt{Table: "acl"},
			p4.IfStmt{
				Cond: p4.Cond{Kind: p4.CondValid, Header: "ipv4"},
				Then: []p4.Stmt{p4.ApplyStmt{Table: "count"}},
			},
		},
	}
	plan, err := Allocate(cb, 12)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StagesUsed() != 1 {
		t.Errorf("StagesUsed = %d, want 1 (successor dep predicated)\n%s", plan.StagesUsed(), plan)
	}
}

func TestAllocateResourcePressureSpills(t *testing.T) {
	// Many independent big tables: stage capacity forces spill to a
	// second stage even without dependencies.
	cb := &p4.ControlBlock{Name: "big"}
	for i := 0; i < 3; i++ {
		name := "big" + string(rune('0'+i))
		cb.Tables = append(cb.Tables, &p4.Table{
			Name: name,
			Keys: []p4.Key{{Field: "ipv4.dst_addr", Kind: p4.MatchExact}},
			Actions: []*p4.Action{{
				Name: "a", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "meta.out_port"}},
			}},
			Size: 40 * mau.SRAMBlockEntries * mau.SRAMBlockWidthBits / (32 + 64), // ≈40 SRAM blocks
		})
		cb.Body = append(cb.Body, p4.ApplyStmt{Table: name})
	}
	plan, err := Allocate(cb, 12)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StagesUsed() < 2 {
		t.Errorf("StagesUsed = %d, want >= 2 under SRAM pressure\n%s", plan.StagesUsed(), plan)
	}
}

func TestMinStagesOfProductionNFs(t *testing.T) {
	// Sanity anchors for packing decisions: single-table NFs need 1
	// stage, the LB (hash -> session) needs 2.
	cases := []struct {
		cb   *p4.ControlBlock
		want int
	}{
		{nf.NewFirewall(true).Block(), 1},
		{nf.NewLoadBalancer(65536).Block(), 2},
		// ttl_check and ipv4_lpm both write sfc.flags (drop/to_cpu):
		// an action dependency forces two stages.
		{nf.NewRouter().Block(), 2},
	}
	for _, c := range cases {
		got, err := MinStages(c.cb)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("MinStages(%s) = %d, want %d", c.cb.Name, got, c.want)
		}
	}
}

func TestAllocateAllProductionNFsFitOnePipelet(t *testing.T) {
	vtep := packet.IP4{172, 16, 0, 1}
	mac := packet.MAC{2, 0, 0, 0, 0, 9}
	nfs := nf.List{
		nf.NewClassifier(1, 2),
		nf.NewFirewall(true),
		nf.NewVGW(vtep, mac),
		nf.NewLoadBalancer(65536),
		nf.NewRouter(),
	}
	for _, f := range nfs {
		block := f.Block()
		plan, err := Allocate(block, 12)
		if err != nil {
			t.Errorf("%s does not fit a 12-stage pipelet: %v", f.Name(), err)
			continue
		}
		// The plan carries the graph it was allocated from.
		if deps, _ := block.Deps(); !reflect.DeepEqual(plan.Deps, deps) {
			t.Errorf("%s: Plan.Deps = %v, block.Deps() = %v", f.Name(), plan.Deps, deps)
		}
	}
}

func TestFrameworkReport(t *testing.T) {
	// Build a block with one framework table and one NF table in
	// separate stages, and check the report counts only the framework
	// one.
	fwTbl := &p4.Table{
		Name:      "check_sfc_flags",
		Framework: true,
		Keys:      []p4.Key{{Field: "sfc.flags", Kind: p4.MatchExact}},
		Actions:   []*p4.Action{{Name: "apply_flags", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "meta.drop"}}}},
		Size:      8,
	}
	nfTbl := &p4.Table{
		Name:    "acl",
		Keys:    []p4.Key{{Field: "meta.drop", Kind: p4.MatchExact}}, // match dep on fwTbl
		Actions: []*p4.Action{{Name: "x", Ops: []p4.Op{{Kind: p4.OpCount}}}},
	}
	cb := &p4.ControlBlock{
		Name:   "mixed",
		Tables: []*p4.Table{fwTbl, nfTbl},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "check_sfc_flags"}, p4.ApplyStmt{Table: "acl"}},
	}
	plan, err := Allocate(cb, 12)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FrameworkStages() != 1 {
		t.Errorf("FrameworkStages = %d, want 1", plan.FrameworkStages())
	}

	rep := FrameworkReport(asic.Wedge100B(), []*Plan{plan, nil})
	stages, ok := rep.Get("Stages")
	if !ok {
		t.Fatal("no Stages line")
	}
	if stages.Used != 1 || stages.Total != 48 {
		t.Errorf("Stages = %d/%d", stages.Used, stages.Total)
	}
	ids, _ := rep.Get("TableIDs")
	if ids.Used != 1 {
		t.Errorf("TableIDs used = %d, want 1 (only the framework table)", ids.Used)
	}
	tcam, _ := rep.Get("TCAM")
	if tcam.Used != 0 {
		t.Errorf("TCAM used = %d, want 0", tcam.Used)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
	if _, ok := rep.Get("Nope"); ok {
		t.Error("Get invented a line")
	}
}

func TestPlanTotalAndString(t *testing.T) {
	plan, err := Allocate(chainOfWriters(2), 12)
	if err != nil {
		t.Fatal(err)
	}
	total := plan.Total()
	if total.TableIDs != 2 {
		t.Errorf("Total TableIDs = %d", total.TableIDs)
	}
	if !strings.Contains(plan.String(), "stage") {
		t.Error("plan String() lacks stages")
	}
}

func TestAllocateInvalidBlock(t *testing.T) {
	bad := &p4.ControlBlock{Name: "bad", Body: []p4.Stmt{p4.ApplyStmt{Table: "ghost"}}}
	if _, err := Allocate(bad, 12); err == nil {
		t.Error("invalid block allocated")
	}
}

func BenchmarkAllocateLB(b *testing.B) {
	cb := nf.NewLoadBalancer(65536).Block()
	for i := 0; i < b.N; i++ {
		if _, err := Allocate(cb, 12); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAllocateSplitsOversizedTable(t *testing.T) {
	// A 64K-prefix LPM demands 128 TCAM blocks — more than the 24 a
	// stage offers. The allocator must slice it across stages instead
	// of failing.
	big := &p4.Table{
		Name:    "big_fib",
		Keys:    []p4.Key{{Field: "ipv4.dst_addr", Kind: p4.MatchLPM}},
		Actions: []*p4.Action{{Name: "fwd", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "meta.out_port"}}}},
		Size:    64 * 1024,
	}
	cb := &p4.ControlBlock{
		Name:   "bigfib",
		Tables: []*p4.Table{big},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "big_fib"}},
	}
	plan, err := Allocate(cb, 12)
	if err != nil {
		t.Fatalf("oversized table not sliced: %v", err)
	}
	// 64K/512 = 128 TCAM blocks over 24-block stages → at least 6 stages.
	if plan.StagesUsed() < 6 {
		t.Errorf("StagesUsed = %d, want >= 6 for a sliced 64K FIB\n%s", plan.StagesUsed(), plan)
	}
	// Slices are named table$i.
	found := 0
	for _, s := range plan.Stages {
		for _, name := range s.Tables {
			if strings.HasPrefix(name, "big_fib$") {
				found++
			}
		}
	}
	if found < 6 {
		t.Errorf("found %d slices", found)
	}
	// The total TCAM across slices covers the full table.
	if got := plan.Total().TCAMBlocks; got < 128 {
		t.Errorf("total TCAM = %d blocks, want >= 128", got)
	}
}

func TestAllocateSplitTableDependenciesRespected(t *testing.T) {
	// A dependent table must land after the *last* slice of a split
	// table it depends on.
	big := &p4.Table{
		Name:    "big_fib",
		Keys:    []p4.Key{{Field: "ipv4.dst_addr", Kind: p4.MatchLPM}},
		Actions: []*p4.Action{{Name: "fwd", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "meta.out_port"}}}},
		Size:    32 * 1024,
	}
	after := &p4.Table{
		Name:    "uses_port",
		Keys:    []p4.Key{{Field: "meta.out_port", Kind: p4.MatchExact}},
		Actions: []*p4.Action{{Name: "a", Ops: []p4.Op{{Kind: p4.OpCount}}}},
	}
	cb := &p4.ControlBlock{
		Name:   "dep",
		Tables: []*p4.Table{big, after},
		Body:   []p4.Stmt{p4.ApplyStmt{Table: "big_fib"}, p4.ApplyStmt{Table: "uses_port"}},
	}
	plan, err := Allocate(cb, 12)
	if err != nil {
		t.Fatal(err)
	}
	lastSlice := -1
	for i, s := range plan.Stages {
		for _, name := range s.Tables {
			if strings.HasPrefix(name, "big_fib$") && i > lastSlice {
				lastSlice = i
			}
		}
	}
	if plan.TableStage["uses_port"] <= lastSlice {
		t.Errorf("dependent at stage %d, last slice at %d\n%s",
			plan.TableStage["uses_port"], lastSlice, plan)
	}
}
