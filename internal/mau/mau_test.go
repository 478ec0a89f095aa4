package mau

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dejavu/internal/p4"
)

func TestExactTable(t *testing.T) {
	tb := NewExactTable(2)
	if err := tb.Insert([]byte("k1"), Entry{Action: "a", Params: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert([]byte("k2"), Entry{Action: "b"}); err != nil {
		t.Fatal(err)
	}
	// Capacity reached: a new key fails, a replace succeeds.
	if err := tb.Insert([]byte("k3"), Entry{Action: "c"}); !errors.Is(err, ErrTableFull) || !strings.Contains(fmt.Sprint(err), "(2 entries)") {
		t.Errorf("insert beyond capacity: %v, want ErrTableFull naming its 2 entries", err)
	}
	if err := tb.Insert([]byte("k1"), Entry{Action: "a2"}); err != nil {
		t.Errorf("replace at capacity failed: %v", err)
	}
	e, ok := tb.Lookup([]byte("k1"))
	if !ok || e.Action() != "a2" || e.Len() != 0 {
		t.Errorf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := tb.Lookup([]byte("nope")); ok {
		t.Error("lookup of absent key succeeded")
	}
	if !tb.Delete([]byte("k2")) || tb.Delete([]byte("k2")) {
		t.Error("Delete semantics wrong")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

// TestExactTableActionCap: a slot holds its action in 8 bits, so a
// table takes 256 actions and refuses a 257th, while a new key under an
// action it has still goes in.
func TestExactTableActionCap(t *testing.T) {
	tb := NewExactTable(0)
	for i := 0; i < 256; i++ {
		if err := tb.Insert([]byte{byte(i)}, Entry{Action: fmt.Sprint("act", i), Params: []uint64{uint64(i)}}); err != nil {
			t.Fatalf("action %d: %v", i, err)
		}
	}
	if err := tb.Insert([]byte{1, 0}, Entry{Action: "act256"}); err == nil || tb.Len() != 256 {
		t.Errorf("the 257th action: %v, %d entries; want a refusal", err, tb.Len())
	}
	if err := tb.Insert([]byte{1, 1}, Entry{Action: "act255"}); err != nil {
		t.Errorf("a new key under a known action: %v", err)
	}
	for i := 0; i < 256; i++ {
		h, ok := tb.Lookup([]byte{byte(i)})
		if !ok || h.Action() != fmt.Sprint("act", i) || h.Len() != 1 || h.Param(0) != uint64(i) {
			t.Fatalf("key %d: %+v, %v", i, entryOf(h, ok), ok)
		}
	}
}

func TestExactTableConcurrent(t *testing.T) {
	tb := NewExactTable(0)
	tb.Insert([]byte("x"), Entry{Action: "a"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tb.Lookup([]byte("x"))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 1000; j++ {
			tb.Insert([]byte("x"), Entry{Action: "a"})
		}
	}()
	wg.Wait()
}

func TestLPM32LongestPrefixWins(t *testing.T) {
	tb := NewLPM32()
	mustInsert := func(pfx uint32, plen int, action string) {
		t.Helper()
		if err := tb.Insert(pfx, plen, Entry{Action: action}); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert(0x0A000000, 8, "ten-slash-8")  // 10.0.0.0/8
	mustInsert(0x0A010000, 16, "ten-one")     // 10.1.0.0/16
	mustInsert(0x0A010100, 24, "ten-one-one") // 10.1.1.0/24
	mustInsert(0x00000000, 0, "default")      // 0.0.0.0/0

	cases := []struct {
		addr uint32
		want string
	}{
		{0x0A010105, "ten-one-one"}, // 10.1.1.5
		{0x0A010205, "ten-one"},     // 10.1.2.5
		{0x0A990001, "ten-slash-8"}, // 10.153.0.1
		{0x08080808, "default"},     // 8.8.8.8
	}
	for _, c := range cases {
		e, ok := tb.Lookup(c.addr)
		if !ok || e.Action != c.want {
			t.Errorf("Lookup(%#x) = %+v,%v want %q", c.addr, e, ok, c.want)
		}
	}
	if tb.Len() != 4 {
		t.Errorf("Len = %d, want 4", tb.Len())
	}
}

func TestLPM32DeleteAndMiss(t *testing.T) {
	tb := NewLPM32()
	tb.Insert(0x0A000000, 8, Entry{Action: "a"})
	if !tb.Delete(0x0A000000, 8) {
		t.Error("Delete existing prefix failed")
	}
	if tb.Delete(0x0A000000, 8) {
		t.Error("double delete succeeded")
	}
	if _, ok := tb.Lookup(0x0A000001); ok {
		t.Error("lookup after delete hit")
	}
	if tb.Delete(0x0B000000, 8) {
		t.Error("delete of never-inserted prefix succeeded")
	}
	if err := tb.Insert(0, 33, Entry{}); err == nil {
		t.Error("prefix length 33 accepted")
	}
}

func TestLPM32Property(t *testing.T) {
	// Inserting a /32 for an address always makes lookups of that
	// address return it, regardless of other routes.
	tb := NewLPM32()
	tb.Insert(0, 0, Entry{Action: "default"})
	f := func(addr uint32) bool {
		tb.Insert(addr, 32, Entry{Action: "host"})
		e, ok := tb.Lookup(addr)
		return ok && e.Action == "host"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTernaryPriority(t *testing.T) {
	tb := NewTernaryTable()
	// Low priority catch-all, higher priority specific rule.
	tb.Insert([]byte{0, 0}, []byte{0, 0}, 0, Entry{Action: "permit"})
	tb.Insert([]byte{0x00, 0x50}, []byte{0x00, 0xFF}, 10, Entry{Action: "deny-port-80"})
	e, ok := tb.Lookup([]byte{0x12, 0x50})
	if !ok || e.Action != "deny-port-80" {
		t.Errorf("Lookup = %+v, want deny-port-80", e)
	}
	e, ok = tb.Lookup([]byte{0x12, 0x51})
	if !ok || e.Action != "permit" {
		t.Errorf("Lookup = %+v, want permit", e)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTernaryTieBreakBySequence(t *testing.T) {
	tb := NewTernaryTable()
	tb.Insert([]byte{1}, []byte{0xFF}, 5, Entry{Action: "first"})
	tb.Insert([]byte{1}, []byte{0xFF}, 5, Entry{Action: "second"})
	e, ok := tb.Lookup([]byte{1})
	if !ok || e.Action != "first" {
		t.Errorf("tie broken wrongly: %+v", e)
	}
}

func TestTernaryShortKeyAndClear(t *testing.T) {
	tb := NewTernaryTable()
	tb.Insert([]byte{1, 2, 3, 4}, []byte{0xFF, 0xFF, 0xFF, 0xFF}, 1, Entry{Action: "long"})
	if _, ok := tb.Lookup([]byte{1, 2}); ok {
		t.Error("short key matched long rule")
	}
	if err := tb.Insert([]byte{1}, []byte{1, 2}, 0, Entry{}); err == nil {
		t.Error("mismatched value/mask accepted")
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Error("Clear left rules behind")
	}
}

func TestEstimateTableExact(t *testing.T) {
	tbl := &p4.Table{
		Name:    "lb_session",
		Keys:    []p4.Key{{Field: "meta.session_hash", Kind: p4.MatchExact}},
		Actions: []*p4.Action{{Name: "modify", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "ipv4.dst_addr"}}}},
		Size:    65536,
	}
	r := EstimateTable(tbl)
	if r.TableIDs != 1 {
		t.Errorf("TableIDs = %d", r.TableIDs)
	}
	if r.TCAMBlocks != 0 {
		t.Errorf("exact table uses TCAM: %+v", r)
	}
	// 64K entries * (32+64) bits / (1024*128) bits per block = 48 blocks.
	if r.SRAMBlocks != 48 {
		t.Errorf("SRAMBlocks = %d, want 48", r.SRAMBlocks)
	}
	if r.ExactXbarB != 4 {
		t.Errorf("ExactXbarB = %d, want 4", r.ExactXbarB)
	}
	if r.VLIWSlots != 1 {
		t.Errorf("VLIWSlots = %d, want 1", r.VLIWSlots)
	}
}

func TestEstimateTableLPM(t *testing.T) {
	tbl := &p4.Table{
		Name:    "route",
		Keys:    []p4.Key{{Field: "ipv4.dst_addr", Kind: p4.MatchLPM}},
		Actions: []*p4.Action{{Name: "fwd", Ops: []p4.Op{{Kind: p4.OpSetField, Dst: "meta.out_port"}}}},
		Size:    1024,
	}
	r := EstimateTable(tbl)
	if r.TCAMBlocks == 0 {
		t.Error("LPM table uses no TCAM")
	}
	// 1024 entries / 512 per block * 1 way (32 <= 44 bits) = 2 blocks.
	if r.TCAMBlocks != 2 {
		t.Errorf("TCAMBlocks = %d, want 2", r.TCAMBlocks)
	}
	if r.TernaryXbarB != 4 {
		t.Errorf("TernaryXbarB = %d, want 4", r.TernaryXbarB)
	}
}

func TestEstimateTableMinimums(t *testing.T) {
	tbl := &p4.Table{Name: "tiny", Actions: []*p4.Action{{Name: "noop"}}}
	r := EstimateTable(tbl)
	if r.SRAMBlocks < 1 || r.TableIDs != 1 || r.VLIWSlots < 1 {
		t.Errorf("minimal table underestimates: %+v", r)
	}
}

func TestResourcesAddFits(t *testing.T) {
	a := Resources{TableIDs: 1, SRAMBlocks: 2, VLIWSlots: 3}
	b := Resources{TableIDs: 2, TCAMBlocks: 4, Gateways: 1}
	sum := a.Add(b)
	if sum.TableIDs != 3 || sum.SRAMBlocks != 2 || sum.TCAMBlocks != 4 || sum.VLIWSlots != 3 || sum.Gateways != 1 {
		t.Errorf("Add = %+v", sum)
	}
	if !sum.FitsIn(StageCapacity()) {
		t.Error("small vector does not fit in a stage")
	}
	huge := Resources{SRAMBlocks: StageSRAMBlocks + 1}
	if huge.FitsIn(StageCapacity()) {
		t.Error("oversized vector fits in a stage")
	}
	if s := sum.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestEstimateBlockIncludesGateways(t *testing.T) {
	tbl := &p4.Table{Name: "t", Actions: []*p4.Action{{Name: "a"}}}
	cb := &p4.ControlBlock{
		Name:   "b",
		Tables: []*p4.Table{tbl},
		Body: []p4.Stmt{
			p4.IfStmt{
				Cond: p4.Cond{Kind: p4.CondFieldEq, Field: "meta.next_nf", Value: 3},
				Then: []p4.Stmt{p4.ApplyStmt{Table: "t"}},
			},
		},
	}
	r := EstimateBlock(cb)
	if r.Gateways != 1 {
		t.Errorf("Gateways = %d, want 1", r.Gateways)
	}
	if r.TableIDs != 1 {
		t.Errorf("TableIDs = %d, want 1", r.TableIDs)
	}
}

func BenchmarkExactLookup(b *testing.B) {
	tb := NewExactTable(0)
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	tb.Insert(key, Entry{Action: "a"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Lookup(key)
	}
}

// BenchmarkExactLookupSession is the same over a 4-byte key with one
// param, the shape of an LB session: the slot's inline layout, where
// BenchmarkExactLookup's 8-byte key takes the spilled one.
func BenchmarkExactLookupSession(b *testing.B) {
	tb := NewExactTable(0)
	key := []byte{1, 2, 3, 4}
	tb.Insert(key, Entry{Action: "a", Params: []uint64{7}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Lookup(key)
	}
}

// BenchmarkExactLookupEncap reads a VGW encap rule — a 4-byte key and
// three params, the spilled layout — and its params.
func BenchmarkExactLookupEncap(b *testing.B) {
	tb := NewExactTable(0)
	key := []byte{10, 0, 0, 9}
	tb.Insert(key, Entry{Action: "vxlan_encap", Params: []uint64{1, 2, 3}})
	b.ReportAllocs()
	var sum uint64
	for i := 0; i < b.N; i++ {
		h, _ := tb.Lookup(key)
		sum += h.Param(0) + h.Param(1) + h.Param(2)
	}
	if sum != 6*uint64(b.N) {
		b.Fatal("wrong params")
	}
}

func BenchmarkLPMLookup(b *testing.B) {
	tb := NewLPM32()
	for i := uint32(0); i < 1024; i++ {
		tb.Insert(i<<16, 16, Entry{Action: "a"})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Lookup(uint32(i) << 16)
	}
}

// BenchmarkExactInsert fills a fresh table with 4-byte keys and one
// param each, the shape of an LB session; growth is amortised in.
func BenchmarkExactInsert(b *testing.B) {
	const entries = 1 << 12
	keys := make([][]byte, entries)
	for i := range keys {
		h := uint32(i) * 2654435761
		keys[i] = []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i += entries {
		tb := NewExactTable(0)
		for j, k := range keys {
			tb.Insert(k, Entry{Action: "modify_dstIp", Params: []uint64{uint64(j)}})
		}
	}
}

// BenchmarkExactChurnAtCap is a session table at the LB's capacity,
// 2^18, under flow churn: each op deletes the oldest session and
// inserts a new one, the rebuilds tombstones force amortised in.
func BenchmarkExactChurnAtCap(b *testing.B) {
	const sessions = 1 << 18
	key := func(i int) [4]byte {
		h := uint32(i) * 2654435761
		return [4]byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
	}
	tb := NewExactTable(sessions)
	for i := 0; i < sessions; i++ {
		k := key(i)
		tb.Insert(k[:], Entry{Action: "modify_dstIp", Params: []uint64{uint64(i)}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old, k := key(i), key(sessions+i)
		tb.Delete(old[:])
		if err := tb.Insert(k[:], Entry{Action: "modify_dstIp", Params: []uint64{uint64(i)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactLookupFull reads a session table filled to the LB's
// capacity, 2^18 sessions, at keys spread over it: hits, and misses —
// a new flow's first packet.
func BenchmarkExactLookupFull(b *testing.B) {
	const sessions = 1 << 18
	key := func(i int) [4]byte {
		h := uint32(i) * 2654435761
		return [4]byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
	}
	tb := NewExactTable(sessions)
	for i := 0; i < sessions; i++ {
		k := key(i)
		tb.Insert(k[:], Entry{Action: "modify_dstIp", Params: []uint64{uint64(i)}})
	}
	for _, c := range []struct {
		name string
		from int
	}{{"hit", 0}, {"miss", sessions}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := key(c.from + i%sessions)
				if _, ok := tb.Lookup(k[:]); ok != (c.from == 0) {
					b.Fatalf("key %d: found %v", c.from+i%sessions, ok)
				}
			}
		})
	}
}
