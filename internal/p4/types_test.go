package p4

import (
	"maps"
	"sync"
	"testing"
)

func TestHeaderTypeWidths(t *testing.T) {
	cases := []struct {
		ht    *HeaderType
		bits  int
		bytes int
	}{
		{HdrEthernet, 112, 14},
		{HdrSFC, 160, 20},
		{HdrIPv4, 160, 20},
		{HdrTCP, 160, 20},
		{HdrUDP, 64, 8},
		{HdrVXLAN, 64, 8},
		{HdrICMP, 64, 8},
		{HdrARP, 224, 28},
	}
	for _, c := range cases {
		if got := c.ht.Bits(); got != c.bits {
			t.Errorf("%s.Bits() = %d, want %d", c.ht.Name, got, c.bits)
		}
		if got := c.ht.Bytes(); got != c.bytes {
			t.Errorf("%s.Bytes() = %d, want %d", c.ht.Name, got, c.bytes)
		}
	}
}

func TestHeaderTypeFieldLookup(t *testing.T) {
	if got := HdrIPv4.FieldBits("dst_addr"); got != 32 {
		t.Errorf("ipv4.dst_addr bits = %d, want 32", got)
	}
	if HdrIPv4.HasField("nonexistent") {
		t.Error("HasField(nonexistent) = true")
	}
	if got := HdrIPv4.FieldBits("nonexistent"); got != 0 {
		t.Errorf("FieldBits(nonexistent) = %d, want 0", got)
	}
}

func TestFieldRefSplit(t *testing.T) {
	h, f := FieldRef("ipv4.dst_addr").Split()
	if h != "ipv4" || f != "dst_addr" {
		t.Errorf("Split = %q,%q", h, f)
	}
	if FieldRef("meta").Header() != "meta" {
		t.Error("Header() on bare ref failed")
	}
}

func TestActionReadWriteSets(t *testing.T) {
	a := &Action{
		Name: "rewrite",
		Ops: []Op{
			{Kind: OpSetField, Dst: "ipv4.dst_addr"},
			{Kind: OpCopyField, Dst: "ipv4.src_addr", Srcs: []FieldRef{"meta.tenant_id"}},
			{Kind: OpHash, Dst: "meta.session_hash", Srcs: []FieldRef{"ipv4.src_addr", "ipv4.dst_addr"}},
		},
	}
	ws := a.WriteSet()
	if len(ws) != 3 {
		t.Errorf("WriteSet = %v", ws)
	}
	rs := a.ReadSet()
	if len(rs) != 3 { // meta.tenant_id, ipv4.src_addr, ipv4.dst_addr
		t.Errorf("ReadSet = %v", rs)
	}
}

func TestDedupRefsSorted(t *testing.T) {
	in := []FieldRef{"b.x", "a.y", "b.x", "a.y", "c.z"}
	out := dedupRefs(in)
	want := []FieldRef{"a.y", "b.x", "c.z"}
	if len(out) != len(want) {
		t.Fatalf("dedupRefs = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("dedupRefs[%d] = %s, want %s", i, out[i], want[i])
		}
	}
}

func TestTableKeyBits(t *testing.T) {
	tb := &Table{
		Name: "lpm",
		Keys: []Key{
			{Field: "ipv4.dst_addr", Kind: MatchLPM},
			{Field: "meta.class_id", Kind: MatchExact},
		},
		Actions: []*Action{{Name: "fwd"}},
	}
	if got := tb.KeyBits(); got != 48 {
		t.Errorf("KeyBits = %d, want 48", got)
	}
	if !tb.NeedsTCAM() {
		t.Error("LPM table does not report TCAM need")
	}
	exact := &Table{Name: "e", Keys: []Key{{Field: "ipv4.src_addr", Kind: MatchExact}}, Actions: []*Action{{Name: "a"}}}
	if exact.NeedsTCAM() {
		t.Error("exact table reports TCAM need")
	}
}

func TestTableExplicitKeyBits(t *testing.T) {
	tb := &Table{
		Name:    "custom",
		Keys:    []Key{{Field: "scratch.v", Kind: MatchExact, Bits: 9}},
		Actions: []*Action{{Name: "a"}},
	}
	if got := tb.KeyBits(); got != 9 {
		t.Errorf("KeyBits = %d, want 9", got)
	}
}

func TestTableValidate(t *testing.T) {
	ok := &Table{
		Name:          "t",
		Keys:          []Key{{Field: "ipv4.dst_addr", Kind: MatchExact}},
		Actions:       []*Action{{Name: "a"}, {Name: "b"}},
		DefaultAction: "b",
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	bad := []*Table{
		{Name: "", Actions: []*Action{{Name: "a"}}},
		{Name: "noact"},
		{Name: "baddef", Actions: []*Action{{Name: "a"}}, DefaultAction: "zzz"},
		{Name: "dupact", Actions: []*Action{{Name: "a"}, {Name: "a"}}},
		{Name: "badhdr", Keys: []Key{{Field: "nosuch.f", Kind: MatchExact}}, Actions: []*Action{{Name: "a"}}},
		{Name: "badfld", Keys: []Key{{Field: "ipv4.nosuch", Kind: MatchExact}}, Actions: []*Action{{Name: "a"}}},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("invalid table %q accepted", b.Name)
		}
	}
}

func TestDepKindStrings(t *testing.T) {
	for k, want := range map[DepKind]string{
		DepMatch: "match", DepAction: "action", DepSuccessor: "successor", DepNone: "none",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %s", k, k.String())
		}
	}
	for k, want := range map[MatchKind]string{
		MatchExact: "exact", MatchLPM: "lpm", MatchTernary: "ternary", MatchRange: "range",
	} {
		if k.String() != want {
			t.Errorf("MatchKind.String() = %s, want %s", k.String(), want)
		}
	}
}

// lpmTable is a table whose key widths (32 + 16 bits) come from the
// header-type registry.
func lpmTable() *Table {
	return &Table{
		Name:    "lpm",
		Keys:    []Key{{Field: "ipv4.dst_addr", Kind: MatchLPM}, {Field: "meta.class_id", Kind: MatchExact}},
		Actions: []*Action{{Name: "fwd"}},
	}
}

// TestStandardHeaderTypesIsReadOnly: every caller is handed the one
// registry built at package initialisation, so it must hold the nine
// built-in types under their own names and no in-tree reader may write
// to it — the three that consult it (KeyBits, Validate, EmitProgram)
// leave it as they found it.
func TestStandardHeaderTypesIsReadOnly(t *testing.T) {
	builtin := []*HeaderType{HdrEthernet, HdrSFC, HdrIPv4, HdrTCP, HdrUDP, HdrICMP, HdrARP, HdrVXLAN, HdrMeta}
	reg := StandardHeaderTypes()
	if len(reg) != len(builtin) {
		t.Fatalf("registry holds %d types, want %d", len(reg), len(builtin))
	}
	for _, h := range builtin {
		if reg[h.Name] != h {
			t.Errorf("registry[%q] is not the built-in %s type", h.Name, h.Name)
		}
	}

	tb := lpmTable()
	prog := &Program{Name: "ro", Parser: SFCIPv4Parser(), Blocks: []*ControlBlock{makeLBBlock()}}
	callers := map[string]func(){
		"Table.KeyBits": func() { tb.KeyBits() },
		"Table.Validate": func() {
			_ = tb.Validate()
			_ = (&Table{Name: "bad", Keys: []Key{{Field: "nosuch.f"}}, Actions: tb.Actions}).Validate()
		},
		"EmitProgram": func() {
			if _, err := EmitProgram(prog); err != nil {
				t.Error(err)
			}
		},
	}
	for name, call := range callers {
		before := maps.Clone(reg)
		call()
		if !maps.Equal(before, StandardHeaderTypes()) {
			t.Errorf("%s wrote to the shared header-type registry", name)
		}
	}
}

// TestStandardHeaderTypesConcurrentReaders is for the race detector:
// the registry's readers run from several goroutines at once, as two
// appliers or an applier beside `dejavu emit` would.
func TestStandardHeaderTypesConcurrentReaders(t *testing.T) {
	tb := lpmTable()
	want, err := EmitProgram(&Program{Name: "rt", Parser: SFCIPv4Parser(), Blocks: []*ControlBlock{makeLBBlock()}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog := &Program{Name: "rt", Parser: SFCIPv4Parser(), Blocks: []*ControlBlock{makeLBBlock()}}
			for i := 0; i < 50; i++ {
				if err := tb.Validate(); err != nil {
					t.Error(err)
				}
				if got := tb.KeyBits(); got != 48 {
					t.Errorf("KeyBits = %d, want 48", got)
				}
				src, err := EmitProgram(prog)
				if err != nil || src != want {
					t.Errorf("EmitProgram: %v; same text as alone: %v", err, src == want)
				}
			}
		}()
	}
	wg.Wait()
}
