package mau

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Randomized op-sequence differential tests: each engine against the
// simplest structure that defines its semantics.

func sameEntry(a, b Entry) bool {
	if a.Action != b.Action || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}

// entryOf copies what a Lookup returned into an Entry, to compare with
// a reference; a miss is the zero Entry.
func entryOf(h Hit, ok bool) Entry {
	if !ok {
		return Entry{}
	}
	e := Entry{Action: h.Action()}
	for i := 0; i < h.Len(); i++ {
		e.Params = append(e.Params, h.Param(i))
	}
	return e
}

func TestExactTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 0
		if seed%2 == 0 {
			capacity = 40 + rng.Intn(200)
		}
		tb := NewExactTable(capacity)
		ref := make(map[string]Entry)
		// A small key universe forces replaces, deletes of present keys
		// and re-inserts over tombstones. Key lengths sit on both sides
		// of the slot's inline limit (7) and of the hash's eight-byte
		// round, param counts on both sides of the one inline param, so
		// the inline and the spilled layout are both held to the map.
		keyLens := []int{0, 1, 4, 7, 14, 15, 40}
		paramCounts := []int{0, 1, 2, 5}
		universe := make([][]byte, 300)
		for i := range universe {
			k := make([]byte, keyLens[rng.Intn(len(keyLens))])
			rng.Read(k)
			universe[i] = k
		}
		for op := 0; op < 6000; op++ {
			k := universe[rng.Intn(len(universe))]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				e := Entry{Action: fmt.Sprint("a", op%7), Params: make([]uint64, paramCounts[rng.Intn(len(paramCounts))])}
				for j := range e.Params {
					e.Params[j] = rng.Uint64()
				}
				err := tb.Insert(k, e)
				_, exists := ref[string(k)]
				full := capacity > 0 && !exists && len(ref) >= capacity
				if (err != nil) != full {
					t.Fatalf("seed %d op %d: Insert err=%v, reference full=%v", seed, op, err, full)
				}
				if err == nil {
					ref[string(k)] = e
				}
			case 5, 6:
				_, exists := ref[string(k)]
				if got := tb.Delete(k); got != exists {
					t.Fatalf("seed %d op %d: Delete=%v, reference has key=%v", seed, op, got, exists)
				}
				delete(ref, string(k))
			default:
				h, ok := tb.Lookup(k)
				got := entryOf(h, ok)
				want, exists := ref[string(k)]
				if ok != exists || !sameEntry(got, want) || tb.Has(k) != exists {
					t.Fatalf("seed %d op %d: Lookup(%x) = %+v,%v want %+v,%v", seed, op, k, got, ok, want, exists)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len=%d, reference %d", seed, op, tb.Len(), len(ref))
			}
			if op%64 == 0 {
				checkExact(t, tb)
			}
		}
		for _, k := range universe {
			h, ok := tb.Lookup(k)
			got := entryOf(h, ok)
			want, exists := ref[string(k)]
			if ok != exists || !sameEntry(got, want) {
				t.Fatalf("seed %d final: Lookup(%x) = %+v,%v want %+v,%v", seed, k, got, ok, want, exists)
			}
		}
	}
}

// exactCensus is what checkExact counted in a table's current
// generation.
type exactCensus struct {
	groups, live, tombs int
	wrapped             int // entries whose probe went round past the last group
	displaced           int // entries outside their home group
}

// checkExact holds tb's index to its invariants, read from the arrays
// rather than from the table's counters. Every live control byte is
// ctrlLive over the low seven bits of its slot's key's hash, and its
// slot holds an entry; no other byte's slot does, and no byte is
// anything else. A tombstone sits only in a group with no empty byte.
// Every entry is reached from its home group — the high word of hash ×
// groups — through groups that have no empty byte. The live and
// tombstone bytes equal Len and the table's count, and together fill at
// most 7 slots a group. The hash is hashKey of the key: an inline key
// read back from its tag, a long one from its record.
func checkExact(t *testing.T, tb *ExactTable) exactCensus {
	t.Helper()
	a := tb.arr.Load()
	n := len(a.ctrl)
	ctrl := func(g, j int) uint8 { return uint8(a.ctrl[g].Load() >> (8 * j)) }
	hasEmpty := func(g int) bool {
		for j := 0; j < exactGroup; j++ {
			if ctrl(g, j) == 0 {
				return true
			}
		}
		return false
	}
	c := exactCensus{groups: n}
	if len(a.slots) != n*exactGroup {
		t.Fatalf("%d groups over %d slots", n, len(a.slots))
	}
	for g := 0; g < n; g++ {
		for j := 0; j < exactGroup; j++ {
			i := g*exactGroup + j
			b := ctrl(g, j)
			meta, tag, param := a.slots[i].load()
			switch {
			case b == 0x00 || b == 0x01:
				if meta&metaLive != 0 {
					t.Fatalf("slot %d holds an entry under control byte %#x", i, b)
				}
				if b == 0x01 {
					c.tombs++
					if hasEmpty(g) {
						t.Fatalf("slot %d: a tombstone in group %d, which has an empty byte", i, g)
					}
				}
			case b >= 0x80:
				c.live++
				if meta&metaLive == 0 {
					t.Fatalf("slot %d: live control byte %#x over a slot with no entry", i, b)
				}
				var key []byte
				if tag >= tagLong {
					key = a.spill[param].key
				} else {
					for k := 0; k < int(tag>>56); k++ {
						key = append(key, byte(tag>>(8*k)))
					}
				}
				h, _ := hashKey(key)
				if want := 0x80 | uint8(h&0x7F); b != want {
					t.Fatalf("slot %d (key %x): control byte %#x, want %#x", i, key, b, want)
				}
				home, _ := bits.Mul64(h, uint64(n))
				for p := int(home); p != g; p = (p + 1) % n {
					if hasEmpty(p) {
						t.Fatalf("slot %d (key %x): group %d on the probe from home %d has an empty byte", i, key, p, home)
					}
				}
				if g != int(home) {
					c.displaced++
				}
				if g < int(home) {
					c.wrapped++
				}
			default:
				t.Fatalf("slot %d: control byte %#x is none of empty, tombstone, live", i, b)
			}
		}
	}
	if c.live != tb.Len() || c.tombs != tb.tombs {
		t.Fatalf("control bytes: %d live, %d tombstones; table counts %d, %d", c.live, c.tombs, tb.Len(), tb.tombs)
	}
	if c.live+c.tombs > 7*n {
		t.Fatalf("%d live and %d tombstones in %d groups: over 7 a group", c.live, c.tombs, n)
	}
	return c
}

// TestExactTableFootprint pins the array a full table holds: a table of
// capacity C filled to C sits in 8·⌈C/7⌉ slots — doubling from one
// group, then the ⌈C/7⌉ that hold C at 7 a group — and live entries
// plus tombstones never pass 7 a group on the way. At 2^18 (the LB's
// session table) that is 37 450 groups, 25 bytes a slot, reached from
// 16 384 groups in one rebuild: the array doubles until the bound is at
// most two doublings away, then takes it.
func TestExactTableFootprint(t *testing.T) {
	for _, capacity := range []int{7, 8, 1000, 1 << 18} {
		tb := NewExactTable(capacity)
		groups := (capacity + 6) / 7
		sizes := []int{1} // the group counts the array went through
		for i := 0; i < capacity; i++ {
			k := [4]byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
			if err := tb.Insert(k[:], Entry{Action: "a", Params: []uint64{uint64(i)}}); err != nil {
				t.Fatalf("capacity %d, insert %d: %v", capacity, i, err)
			}
			g := len(tb.arr.Load().ctrl)
			if tb.Len()+tb.tombs > 7*g {
				t.Fatalf("capacity %d, insert %d: %d live and %d tombstones in %d groups", capacity, i, tb.Len(), tb.tombs, g)
			}
			if last := sizes[len(sizes)-1]; g != last {
				if g != 2*last && (g != groups || 4*last < groups) {
					t.Fatalf("capacity %d, insert %d: grew from %d to %d groups", capacity, i, last, g)
				}
				sizes = append(sizes, g)
			}
			if capacity <= 8 || capacity <= 1000 && i%50 == 0 {
				checkExact(t, tb)
			}
		}
		c := checkExact(t, tb)
		if n := len(tb.arr.Load().slots); n != 8*groups {
			t.Errorf("capacity %d full: %d slots, want %d", capacity, n, 8*groups)
		}
		if err := tb.Insert([]byte("new"), Entry{}); err == nil {
			t.Errorf("capacity %d: an insert past capacity succeeded", capacity)
		}
		bytes := c.groups * exactGroup * 25 // a 24-byte slot and its control byte
		t.Logf("capacity %d: %d groups (through %v), %d bytes, %.1f B an entry, %d entries off their home group", capacity, c.groups, sizes, bytes, float64(bytes)/float64(capacity), c.displaced)
	}
}

// TestExactTableStaysSmall pins the no-presizing rule: a table with a
// large capacity and few entries holds an array sized to the entries
// and, when none spills, no side store. Insert/delete churn leaves no
// tombstone: a key deleted from the group it filled frees its slot,
// since no other entry's probe went through that group, and so the
// array does not grow on churn alone.
func TestExactTableStaysSmall(t *testing.T) {
	tb := NewExactTable(1 << 16)
	for i := 0; i < 100; i++ {
		tb.Insert([]byte{byte(i)}, Entry{})
	}
	if n := len(tb.arr.Load().slots); n != 128 {
		t.Errorf("100 entries sit in %d slots, want 128 (16 groups, 7/8 of which hold 112)", n)
	}
	if n := len(tb.arr.Load().spill); n != 0 {
		t.Errorf("100 inline entries keep a side store of %d records", n)
	}
	for round := 0; round < 1000; round++ {
		k := []byte{1, byte(round), byte(round >> 8)}
		tb.Insert(k, Entry{})
		tb.Delete(k)
	}
	if c := checkExact(t, tb); c.tombs != 0 || c.groups != 16 {
		t.Errorf("insert/delete churn left %d tombstones in %d groups, want none in 16", c.tombs, c.groups)
	}
}

type refRoute struct {
	prefix uint32
	plen   int
	e      Entry
}

func lpmMask(plen int) uint32 {
	if plen == 0 {
		return 0
	}
	return ^uint32(0) << (32 - plen)
}

// TestLPM32MatchesLinearScan holds the stride-8 trie to two oracles: a
// linear scan over the installed routes on a small nested address space
// (every prefix length, replaces, deletes with host bits set), then the
// binary trie it replaced at the Router table's declared size.
func TestLPM32MatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewLPM32()
		var ref []refRoute
		find := func(prefix uint32, plen int) int {
			for i, r := range ref {
				if r.plen == plen && r.prefix == prefix&lpmMask(plen) {
					return i
				}
			}
			return -1
		}
		// Addresses share high bytes so prefixes nest.
		addr := func() uint32 { return uint32(10+rng.Intn(3))<<24 | uint32(rng.Intn(4))<<16 | uint32(rng.Intn(1<<16)) }
		for op := 0; op < 3000; op++ {
			switch rng.Intn(8) {
			case 0, 1, 2:
				plen := rng.Intn(33)
				p := addr()
				e := Entry{Action: "fwd", Params: []uint64{uint64(op)}}
				if err := tb.Insert(p, plen, e); err != nil {
					t.Fatal(err)
				}
				if i := find(p, plen); i >= 0 {
					ref[i].e = e
				} else {
					ref = append(ref, refRoute{p & lpmMask(plen), plen, e})
				}
			case 3:
				if len(ref) == 0 {
					continue
				}
				r := ref[rng.Intn(len(ref))]
				p, plen := r.prefix|uint32(rng.Intn(2)), r.plen // low host bit must not matter below /32
				if plen == 32 {
					p = r.prefix
				}
				i := find(p, plen)
				if got := tb.Delete(p, plen); got != (i >= 0) {
					t.Fatalf("seed %d op %d: Delete(%#x/%d)=%v, reference %v", seed, op, p, plen, got, i >= 0)
				}
				if i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
			default:
				a := addr()
				best := -1
				for i, r := range ref {
					if a&lpmMask(r.plen) == r.prefix && (best < 0 || r.plen > ref[best].plen) {
						best = i
					}
				}
				got, ok := tb.Lookup(a)
				if ok != (best >= 0) || (ok && !sameEntry(*got, ref[best].e)) {
					t.Fatalf("seed %d op %d: Lookup(%#x) = %+v,%v, reference index %d", seed, op, a, got, ok, best)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len=%d, reference %d", seed, op, tb.Len(), len(ref))
			}
		}
	}

	// 8 192 prefixes of every length, then deletes and re-inserts
	// interleaved with lookups, against the binary trie.
	rng := rand.New(rand.NewSource(7))
	tb, ref := NewLPM32(), new(refLPM)
	type route struct {
		prefix uint32
		plen   int
	}
	var routes []route
	set := func(op int, r route, e *Entry) {
		want := ref.set(r.prefix, r.plen, e)
		if e != nil {
			if err := tb.Insert(r.prefix, r.plen, *e); err != nil {
				t.Fatal(err)
			}
		} else if got := tb.Delete(r.prefix, r.plen); got != (want < 0) {
			t.Fatalf("op %d: Delete(%#x/%d)=%v, binary trie %v", op, r.prefix, r.plen, got, want < 0)
		}
		if tb.Len() != ref.n {
			t.Fatalf("op %d: Len=%d after %#x/%d, binary trie %d", op, tb.Len(), r.prefix, r.plen, ref.n)
		}
	}
	lookup := func(op int, a uint32) {
		got, ok := tb.Lookup(a)
		want, exists := ref.Lookup(a)
		if ok != exists || (ok && !sameEntry(*got, want)) {
			t.Fatalf("op %d: Lookup(%#x) = %+v,%v, binary trie %+v,%v", op, a, got, ok, want, exists)
		}
	}
	for len(routes) < 8192 {
		r := route{rng.Uint32(), len(routes) % 33}
		if rng.Intn(2) == 0 && len(routes) > 0 {
			// Under an installed route's first bits, so prefixes nest.
			up := routes[rng.Intn(len(routes))]
			r.prefix = up.prefix&lpmMask(up.plen) | r.prefix&^lpmMask(up.plen)
		}
		routes = append(routes, r)
		set(len(routes), r, &Entry{Action: "fwd", Params: []uint64{uint64(len(routes))}})
	}
	for op := 0; op < 40000; op++ {
		r := routes[rng.Intn(len(routes))]
		switch rng.Intn(8) {
		case 0:
			set(op, r, nil) // may already be gone
		case 1:
			set(op, r, &Entry{Action: "fwd", Params: []uint64{uint64(op)}})
		case 2:
			lookup(op, rng.Uint32())
		default:
			// An address under the route, and its sibling's.
			a := r.prefix&lpmMask(r.plen) | rng.Uint32()&^lpmMask(r.plen)
			lookup(op, a)
			if r.plen > 0 {
				lookup(op, a^1<<(32-r.plen))
			}
		}
	}
	for op, r := range routes {
		set(op, r, nil)
	}
	if s := tb.snap.Load(); s.root != nil || s.def != nil {
		t.Errorf("every route deleted, trie still holds root=%v def=%v", s.root, s.def)
	}
}

// TestLPM32Memory bounds the popcount nodes: 8 192 random /24s with
// three params each — the Router's table at its declared size — stay
// within what the binary trie took (2.93 MB); plain [256] arrays per
// node would take 57 MB.
func TestLPM32Memory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := NewLPM32()
	for tb.Len() < 8192 {
		tb.Insert(rng.Uint32(), 24, Entry{Action: "forward", Params: []uint64{1, 2, 3}})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > 3<<20 {
		t.Errorf("8192 /24 routes hold %d bytes live, want at most %d", live, 3<<20)
	} else {
		t.Logf("8192 /24 routes hold %d bytes live", live)
	}
	runtime.KeepAlive(tb)
}

type refRule struct {
	value, mask []byte
	priority    int
	e           Entry
}

func TestTernaryMatchesPriorityScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTernaryTable()
		var ref []refRule // insertion order
		for op := 0; op < 1500; op++ {
			switch {
			case op%500 == 499:
				tb.Clear()
				ref = nil
			case rng.Intn(4) == 0:
				n := 1 + rng.Intn(4)
				value, mask := make([]byte, n), make([]byte, n)
				rng.Read(value)
				for i := range mask {
					mask[i] = []byte{0, 0x0F, 0xF0, 0xFF}[rng.Intn(4)]
				}
				r := refRule{value: append([]byte(nil), value...), mask: append([]byte(nil), mask...),
					priority: rng.Intn(5), e: Entry{Action: fmt.Sprint("r", op)}}
				if err := tb.Insert(value, mask, r.priority, r.e); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, r)
				value[0], mask[0] = ^value[0], ^mask[0] // the table must have copied its inputs
			default:
				key := make([]byte, 1+rng.Intn(4))
				rng.Read(key)
				best := -1
				for i, r := range ref {
					if len(key) < len(r.value) {
						continue
					}
					match := true
					for j := range r.value {
						if key[j]&r.mask[j] != r.value[j]&r.mask[j] {
							match = false
						}
					}
					// Highest priority, then earliest inserted.
					if match && (best < 0 || r.priority > ref[best].priority) {
						best = i
					}
				}
				got, ok := tb.Lookup(key)
				if ok != (best >= 0) || (ok && got.Action != ref[best].e.Action) {
					t.Fatalf("seed %d op %d: Lookup(%x) = %+v,%v, reference index %d", seed, op, key, got, ok, best)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len=%d, reference %d", seed, op, tb.Len(), len(ref))
			}
		}
	}
}

// TestTernaryWordsMatchByteScan holds the word-wide match loop to the
// byte-wise scan it replaced: rules 1–24 bytes wide (inside one word,
// across both, and with a tail past them), keys shorter, equal and
// longer than the rules, few priorities so insertion order breaks ties,
// and the word entry point on every key two words hold.
func TestTernaryWordsMatchByteScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, ref := NewTernaryTable(), new(refTernary)
		maskBytes := []byte{0, 0, 0x0F, 0xF0, 0xFF, 0xFF}
		width, widest := make(map[string]int), 0 // per rule; of the rules that were hit
		for op := 0; op < 4000; op++ {
			if op%8 == 0 && ref.rules == nil || rng.Intn(40) == 0 {
				n := 1 + rng.Intn(24)
				value, mask := make([]byte, n), make([]byte, n)
				// A few values per byte, so keys hit rules.
				for i := range value {
					value[i], mask[i] = byte(rng.Intn(3)), maskBytes[rng.Intn(len(maskBytes))]
				}
				e := Entry{Action: fmt.Sprint("r", op), Params: []uint64{uint64(op)}}
				prio := rng.Intn(3) + n/12 // wide rules above most narrow ones, or those would shadow them
				if err := tb.Insert(value, mask, prio, e); err != nil {
					t.Fatal(err)
				}
				ref.Insert(value, mask, prio, e)
				width[e.Action] = n
				continue
			}
			key := make([]byte, rng.Intn(28))
			for i := range key {
				key[i] = byte(rng.Intn(3))
			}
			if len(ref.rules) > 0 && rng.Intn(2) == 0 {
				// Start from a rule, so wide rules are hit too; sometimes
				// one byte off.
				copy(key, ref.rules[rng.Intn(len(ref.rules))].want)
				if len(key) > 0 && rng.Intn(4) == 0 {
					key[rng.Intn(len(key))] ^= 0x11
				}
			}
			got, ok := tb.Lookup(key)
			want, exists := ref.Lookup(key)
			if exists {
				widest = max(widest, width[want.Action])
			}
			if ok != exists || !sameEntry(got, want) {
				t.Fatalf("seed %d op %d: Lookup(%x) = %+v,%v, byte-wise scan %+v,%v", seed, op, key, got, ok, want, exists)
			}
			if len(key) <= ternaryWordKey {
				k0, k1 := packWords(key)
				e := tb.LookupWords(k0, k1, len(key))
				if (e != nil) != exists || (e != nil && !sameEntry(*e, want)) {
					t.Fatalf("seed %d op %d: LookupWords(%x) = %+v, byte-wise scan %+v,%v", seed, op, key, e, want, exists)
				}
			}
		}
		if tb.Len() != len(ref.rules) {
			t.Fatalf("seed %d: Len=%d, reference %d", seed, tb.Len(), len(ref.rules))
		}
		if widest <= ternaryWordKey {
			t.Errorf("seed %d: no lookup hit a rule wider than %d bytes (widest %d): the tail compare went untested", seed, ternaryWordKey, widest)
		}
	}
}

// The hammers: one writer, several readers, across array growth,
// tombstones, deletes and reinserts in full groups and republished
// generations. Every key a reader saw installed before a pass must be
// visible throughout that pass. Run with -race -count=10 (CI does).

func TestExactTableHammer(t *testing.T) {
	const stable, churn, hot, readers = 3000, 400, 8, 4
	tb := NewExactTable(0)
	// Every third key takes the spilled layout (nine bytes), the rest
	// the inline one (four).
	key := func(i int) []byte {
		k := []byte{byte(i >> 16), byte(i >> 8), byte(i), 0xA5}
		if i%3 == 0 {
			k = append(k, 1, 2, 3, 4, 5)
		}
		return k
	}
	// A stable key's entry cycles through four forms, each replace in
	// place: action A with params all p, or action B with params all ^p,
	// one param (inline, on a short key) or two (spilled). Every replace
	// changes the action and every other one the layout, so a reader
	// that mixed words of two forms sees an action whose params do not
	// match it, or a param count neither form has.
	entry := func(i, form int) Entry {
		e := Entry{Action: "A", Params: []uint64{uint64(i)}}
		if form&1 != 0 {
			e = Entry{Action: "B", Params: []uint64{^uint64(i)}}
		}
		if form == 1 || form == 2 {
			e.Params = append(e.Params, e.Params[0])
		}
		return e
	}
	// check reports whether stable key i reads as one whole form.
	check := func(i int) bool {
		h, ok := tb.Lookup(key(i))
		if !ok {
			t.Errorf("stable key %d: missing", i)
			return false
		}
		want := uint64(i)
		if h.Action() == "B" {
			want = ^want
		}
		ok = h.Action() == "A" || h.Action() == "B"
		ok = ok && h.Len() >= 1 && h.Len() <= 2
		for j := 0; ok && j < h.Len(); j++ {
			ok = h.Param(j) == want
		}
		if !ok {
			t.Errorf("stable key %d: torn read: %+v", i, entryOf(h, true))
		}
		return ok
	}
	var installed atomic.Int64 // stable keys [0, installed) are in the table for good
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Every installed key, then the hot ones the writer replaces
				// at every step, over and over.
				n := int(installed.Load())
				for i := 0; i < n; i++ {
					if !check(i) {
						return
					}
				}
				for i := 0; i < 64*hot && i < n; i++ {
					if !check(i % hot) {
						return
					}
				}
			}
		}()
	}
	// inFullGroup reports whether k is in the table, in a group with no
	// empty byte. The writer's own read: no one else writes.
	inFullGroup := func(k []byte) bool {
		a := tb.arr.Load()
		h, tag := hashKey(k)
		at, _ := a.find(h, tag, k)
		return at >= 0 && matchEmpty(a.ctrl[at/exactGroup].Load()) == 0
	}
	fullDeletes, tombstoned := 0, 0
	form := make([]int, stable)
	replace := func(i int) {
		form[i] = (form[i] + 1) % 4
		tb.Insert(key(i), entry(i, form[i]))
	}
	for i := 0; i < stable; i++ {
		tb.Insert(key(i), entry(i, 0))
		installed.Store(int64(i + 1))
		// Replaces of keys the readers watch — the hot ones, an old one,
		// the newest — across the array's growth and the side store's
		// rebuilds.
		for j := 0; j < hot && j < i; j++ {
			replace(j)
		}
		replace(i / 2)
		replace(i)
		// Churn keys come and go between the stable ones: tombstones on
		// the stable keys' probe chains, reuse of tombstones, replaces.
		c := key(1<<20 + i%churn)
		tb.Insert(c, entry(i, 0))
		tb.Insert(c, entry(i, 1)) // a replace may change the layout
		if i%3 != 0 {
			tb.Delete(c)
		}
		// A churn key in a full group is deleted and put back: a
		// tombstone where another key's probe goes through, or an empty
		// byte in a full group, and the reinsert that takes a free slot
		// on its probe again.
		if c := key(1<<20 + (i+churn/2)%churn); inFullGroup(c) {
			tombs := tb.tombs
			tb.Delete(c)
			fullDeletes++
			if tb.tombs > tombs {
				tombstoned++
			}
			tb.Insert(c, entry(i, 2))
		}
	}
	stop.Store(true)
	wg.Wait()
	if fullDeletes == 0 || tombstoned == 0 {
		t.Errorf("%d deletes in full groups, %d of them tombstones: want some of each", fullDeletes, tombstoned)
	}
	t.Logf("%d deletes in full groups, %d of them tombstones; %d groups at the end", fullDeletes, tombstoned, len(tb.arr.Load().ctrl))
}

func TestLPM32Hammer(t *testing.T) {
	const stable, readers = 600, 4
	tb := NewLPM32()
	tb.Insert(0, 0, Entry{Params: []uint64{1 << 40}})
	var installed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n := int(installed.Load())
				for i := 0; i < n; i++ {
					// Host .1 of stable /24 number i.
					e, ok := tb.Lookup(uint32(i)<<8 | 1)
					if !ok || e.Params[0] != uint64(i) {
						t.Errorf("stable /24 %d of %d installed: Lookup = %+v,%v", i, n, e, ok)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < stable; i++ {
		tb.Insert(uint32(i)<<8, 24, Entry{Params: []uint64{uint64(i)}})
		installed.Store(int64(i + 1))
		// A /32 for host .2 beside it, then gone again: the /24 node is
		// path-copied twice more.
		tb.Insert(uint32(i)<<8|2, 32, Entry{Params: []uint64{7}})
		tb.Delete(uint32(i)<<8|2, 32)
	}
	stop.Store(true)
	wg.Wait()
}

func TestTernaryHammer(t *testing.T) {
	const stable, readers = 300, 4
	tb := NewTernaryTable()
	var installed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n := int(installed.Load())
				for i := 0; i < n; i++ {
					e, ok := tb.Lookup([]byte{byte(i >> 8), byte(i)})
					if !ok || e.Params[0] != uint64(i) {
						t.Errorf("stable rule %d of %d installed: Lookup = %+v,%v", i, n, e, ok)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < stable; i++ {
		// Exact two-byte rules at priority 10; a lower-priority catch-all
		// is republished around them and must never shadow them.
		tb.Insert([]byte{byte(i >> 8), byte(i)}, []byte{0xFF, 0xFF}, 10, Entry{Params: []uint64{uint64(i)}})
		installed.Store(int64(i + 1))
		tb.Insert([]byte{0, 0}, []byte{0, 0}, 1, Entry{Params: []uint64{1 << 40}})
	}
	stop.Store(true)
	wg.Wait()
}

// TestExactInsertCopies: the table keeps copies of the key and the
// params, in the inline layout and in the spilled one, so a caller that
// reuses its buffers after Insert does not rewrite an installed entry
// under the readers.
func TestExactInsertCopies(t *testing.T) {
	tb := NewExactTable(0)
	for _, c := range []struct {
		key    []byte
		params []uint64
	}{
		{[]byte{1, 2, 3, 4}, []uint64{10}},
		{[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []uint64{10}},
		{[]byte{9, 9}, []uint64{10, 11, 12}},
	} {
		key := append([]byte(nil), c.key...)
		params := append([]uint64(nil), c.params...)
		if err := tb.Insert(key, Entry{Action: "a", Params: params}); err != nil {
			t.Fatal(err)
		}
		for i := range key {
			key[i] = 0xFF
		}
		for i := range params {
			params[i] = 0xDEAD
		}
		if h, ok := tb.Lookup(c.key); !ok || !sameEntry(entryOf(h, ok), Entry{Action: "a", Params: c.params}) {
			t.Errorf("key %x after the caller rewrote its buffers: Lookup = %+v,%v, want params %v", c.key, entryOf(h, ok), ok, c.params)
		}
		if _, ok := tb.Lookup(key); ok {
			t.Errorf("key %x: the rewritten key buffer matches an entry", c.key)
		}
	}
}

// exactLayouts are the entry shapes a slot holds inline and the ones
// that spill, with the allocations an insert of each makes: the copies
// its side-store record holds.
var exactLayouts = []struct {
	name   string
	key    []byte
	params []uint64
	allocs float64
}{
	{"session (4-byte key, one param)", []byte{1, 2, 3, 4}, []uint64{7}, 0},
	{"7-byte key, no params", []byte{1, 2, 3, 4, 5, 6, 7}, nil, 0},
	{"8-byte key, no params", []byte{1, 2, 3, 4, 5, 6, 7, 8}, nil, 1},
	{"8-byte key, one param", []byte{2, 2, 3, 4, 5, 6, 7, 8}, []uint64{7}, 2},
	{"two params", []byte{1, 2, 3}, []uint64{7, 8}, 1},
	{"three params (a VGW encap rule)", []byte{10, 0, 0, 9}, []uint64{7, 8, 9}, 1},
}

// TestExactInsertAllocBudget: an entry that fits its slot is no
// allocation, new keys' array growth included; a spilled one is its
// record's copies. A spilled write also pays, now and then, for the
// rebuild that gives the side store room — under one allocation a
// write, amortised, which AllocsPerRun's whole-number average leaves
// out of the count.
func TestExactInsertAllocBudget(t *testing.T) {
	fresh := NewExactTable(0)
	n := uint32(0)
	if got := testing.AllocsPerRun(1<<14, func() {
		n++
		k := [4]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
		fresh.Insert(k[:], Entry{Action: "modify_dstIp", Params: []uint64{uint64(n)}})
	}); got != 0 {
		t.Errorf("new sessions: Insert = %.1f allocations, want 0", got)
	}
	tb := NewExactTable(0)
	for _, c := range exactLayouts {
		e := Entry{Action: "a", Params: c.params}
		tb.Insert(c.key, e) // replaces from here on: no array growth
		if got := testing.AllocsPerRun(100, func() { tb.Insert(c.key, e) }); got != c.allocs {
			t.Errorf("%s: Insert = %.1f allocations, want %.0f", c.name, got, c.allocs)
		}
	}
}

// TestExactReadAllocBudget: Lookup, Has and reading the params allocate
// nothing, whatever the entry's layout.
func TestExactReadAllocBudget(t *testing.T) {
	tb := NewExactTable(0)
	for _, c := range exactLayouts {
		tb.Insert(c.key, Entry{Action: "a", Params: c.params})
	}
	for _, c := range exactLayouts {
		var sum uint64
		got := testing.AllocsPerRun(100, func() {
			h, ok := tb.Lookup(c.key)
			for i := 0; i < h.Len(); i++ {
				sum += h.Param(i)
			}
			if !ok || !tb.Has(c.key) {
				t.Fatalf("%s: missing", c.name)
			}
		})
		if got != 0 {
			t.Errorf("%s: Lookup, Has and the params = %.1f allocations, want 0", c.name, got)
		}
		if want := uint64(len(c.params)) * 101; len(c.params) > 0 && sum < want {
			t.Errorf("%s: params summed to %d over 101 reads", c.name, sum)
		}
	}
}

// exactOps decodes ops into an op sequence — insert, delete, lookup —
// over a universe of 64 keys and holds the table to a map, as
// TestExactTableMatchesMap does with a seeded generator, and to
// checkExact after every op. ops[0] picks the capacity: unbounded, or
// one whose ⌈C/7⌉ groups are 1, 2, 3, 4, 6 or 9, so the array grows by
// doubling and then to a count that is not a power of two, and a probe
// wraps round past the last group. Each later byte is one op: its top
// two bits the kind, its low six the key. Key lengths sit on both sides
// of the inline limit and the hash's eight-byte round; an insert's
// params, 0, 1, 2 or 5, and its action come from its position. It
// returns what the run reached.
func exactOps(t *testing.T, ops []byte) (cov exactCoverage) {
	if len(ops) == 0 {
		return cov
	}
	keyLens := []int{1, 4, 7, 8, 9, 15, 16, 17}
	paramCounts := []int{0, 1, 2, 5}
	capacity := []int{0, 1, 7, 8, 15, 22, 40, 60}[ops[0]&7] // 0: unbounded
	tb, ref := NewExactTable(capacity), make(map[string]Entry)
	for i, op := range ops[1:] {
		// The key's length from its number (0 has none), its bytes from
		// the number, so keys of equal length differ.
		id := int(op & 63)
		k := make([]byte, keyLens[id%len(keyLens)])
		if id == 0 {
			k = nil
		}
		for j := range k {
			k[j] = byte(id*31 + j)
		}
		switch op >> 6 {
		case 0, 1:
			e := Entry{Action: fmt.Sprint("a", i%3)}
			for j := 0; j < paramCounts[i%len(paramCounts)]; j++ {
				e.Params = append(e.Params, uint64(i)<<8|uint64(j))
			}
			_, exists := ref[string(k)]
			full := capacity > 0 && !exists && len(ref) >= capacity
			if err := tb.Insert(k, e); (err != nil) != full {
				t.Fatalf("op %d: Insert(%x) err=%v, reference full=%v", i, k, err, full)
			} else if err == nil {
				ref[string(k)] = e
			}
		case 2:
			_, exists := ref[string(k)]
			var group uint64 // the key's group's control word before the delete
			if h, tag := hashKey(k); exists {
				a := tb.arr.Load()
				at, _ := a.find(h, tag, k)
				group = a.ctrl[at/exactGroup].Load()
			}
			tombs := tb.tombs
			if got := tb.Delete(k); got != exists {
				t.Fatalf("op %d: Delete(%x)=%v, reference has it=%v", i, k, got, exists)
			}
			delete(ref, string(k))
			switch {
			case !exists:
			case tb.tombs > tombs:
				cov.toTomb = true
			case matchEmpty(group) == 0:
				cov.fullToEmpty = true
			default:
				cov.toEmpty = true
			}
		default:
			h, ok := tb.Lookup(k)
			want, exists := ref[string(k)]
			if got := entryOf(h, ok); ok != exists || !sameEntry(got, want) || tb.Has(k) != exists {
				t.Fatalf("op %d: Lookup(%x) = %+v,%v want %+v,%v", i, k, got, ok, want, exists)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d, reference %d", i, tb.Len(), len(ref))
		}
		c := checkExact(t, tb)
		cov.oddGroups = cov.oddGroups || c.groups&(c.groups-1) != 0
		cov.wrapped = cov.wrapped || c.wrapped > 0
	}
	for k, want := range ref {
		h, ok := tb.Lookup([]byte(k))
		if got := entryOf(h, ok); !ok || !sameEntry(got, want) {
			t.Fatalf("final: Lookup(%x) = %+v,%v want %+v", k, got, ok, want)
		}
	}
	return cov
}

// exactCoverage is what an exactOps run reached.
type exactCoverage struct {
	oddGroups   bool // a group count that is not a power of two
	wrapped     bool // an entry whose probe went round past the last group
	toEmpty     bool // a delete in a group with an empty byte to spare
	fullToEmpty bool // a delete in a full group that no probe went through
	toTomb      bool // a delete that left a tombstone
}

// exactSeed is an exactOps input: fill a table of the capacity picked
// by pick with random keys, then churn — deletes, reinserts, lookups —
// from a fixed seed.
func exactSeed(pick byte, seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := []byte{pick}
	for i := 0; i < n; i++ {
		kind := byte(rng.Intn(4))
		if i < n/3 {
			kind = 0
		}
		ops = append(ops, kind<<6|byte(rng.Intn(64)))
	}
	return ops
}

// exactFuzzSeeds are FuzzExactTable's seed corpus.
var exactFuzzSeeds = [][]byte{
	{0, 0, 1, 2, 3, 9, 4, 5, 6},
	{3, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x16, 0x27, 0x38, 0x49, 0xfa, 0xfb},
	[]byte("\x02insert, delete, replace: every layout of every key"),
	exactSeed(4, 1, 300), // 3 groups
	exactSeed(6, 2, 400), // 6 groups
	exactSeed(7, 3, 600), // 9 groups
	exactSeed(0, 4, 600), // unbounded
}

// TestExactFuzzSeedsCover: FuzzExactTable's seeds alone reach a group
// count that is not a power of two, a probe that wraps past the last
// group, and each kind of delete — to an empty byte in a group with one
// to spare, to an empty byte in a full group no probe went through, and
// to a tombstone.
func TestExactFuzzSeedsCover(t *testing.T) {
	var all exactCoverage
	for _, ops := range exactFuzzSeeds {
		c := exactOps(t, ops)
		all.oddGroups = all.oddGroups || c.oddGroups
		all.wrapped = all.wrapped || c.wrapped
		all.toEmpty = all.toEmpty || c.toEmpty
		all.fullToEmpty = all.fullToEmpty || c.fullToEmpty
		all.toTomb = all.toTomb || c.toTomb
	}
	if all != (exactCoverage{true, true, true, true, true}) {
		t.Errorf("the seed corpus reaches %+v, want every case", all)
	}
}

// FuzzExactTable runs exactOps on its input.
func FuzzExactTable(f *testing.F) {
	for _, ops := range exactFuzzSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { exactOps(t, ops) })
}
