package mau

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The three match engines follow the P4 split of data-plane reads and
// control-plane writes: Lookup takes no lock and writes no shared
// memory, so any number of injectors read one table without touching a
// common cache line; writers serialise on a mutex and publish through
// atomic pointers. TernaryTable and LPM32 are written at configuration
// rate, so each write builds a new immutable generation (copy-on-write
// rule slice, path-copying trie) and swaps one pointer. ExactTable is
// written once per new flow, so a whole-table copy per insert is out:
// it publishes per slot instead (see its doc).

// Entry is the result of a table lookup: which action to run and its
// runtime parameters, in declaration order of the action's Params.
type Entry struct {
	Action string
	Params []uint64
}

// ExactTable is an exact-match table keyed by opaque byte strings: an
// open-addressed array of atomic pointers to immutable slots. A write
// allocates a fresh slot and stores its pointer, so an insert is O(1)
// amortised and a concurrent Lookup sees either the old slot or the new
// one, never a torn entry. The array grows by doubling into a fresh
// array that is published with one pointer store; a Lookup that loaded
// the old array finishes against it, complete as of the swap. It starts
// at eight slots and is never presized to the capacity: a session table sized
// for its worst case would pin that memory from the first packet.
type ExactTable struct {
	mu    sync.Mutex // serialises writers; readers never take it
	arr   atomic.Pointer[exactArray]
	n     atomic.Int64 // live entries
	tombs int          // deleted slots still occupying probe chains
	cap   int
}

// exactArray is one generation of the slot array; len(slots) is a
// power of two and at most half of it is ever occupied.
type exactArray struct {
	slots []atomic.Pointer[exactSlot]
	shift uint // 64 - log2(len(slots)): the hash's top bits index the array
}

// exactSlot is one immutable key/entry pair: 64 bytes, and the only
// allocation of an insert whose key is at most exactInlineKey bytes and
// whose entry has at most one param (a session, a NAT mapping, a VNI).
// Such a key is its tag, and e.Params points at the slot's own param
// word, so Lookup hands out e as stored. A longer key spills into an
// exactLongSlot, more params into a slice of their own. Either way the
// slot holds copies: the caller's key and Params stay the caller's.
type exactSlot struct {
	e     Entry
	tag   uint64  // see hashKey
	long  *[]byte // the key when the tag cannot hold it, else nil
	param [1]uint64
}

// exactLongSlot is the allocation behind a slot with a spilled key:
// long points at key.
type exactLongSlot struct {
	exactSlot
	key []byte
}

// exactInlineKey is the longest key a tag holds: seven bytes under the
// length byte.
const exactInlineKey = 7

// A tag's top byte is an inline key's length (0–7), tagLong over 56
// bits of a spilled key's hash, or the tombstone's, which no key has.
const (
	tagLong      uint64 = 0xFF << 56
	tagTombstone uint64 = 0xFE << 56
)

// exactTombstone marks a deleted slot: probe chains continue past it.
var exactTombstone = &exactSlot{tag: tagTombstone}

// exactMinSlots is the size of a table's first array.
const exactMinSlots = 8

// NewExactTable creates a table with the given capacity; capacity 0
// means unbounded.
//
//dv:snapshotwriter
func NewExactTable(capacity int) *ExactTable {
	t := &ExactTable{cap: capacity}
	t.arr.Store(newExactArray(exactMinSlots))
	return t
}

func newExactArray(size int) *exactArray {
	return &exactArray{
		slots: make([]atomic.Pointer[exactSlot], size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// mix folds one word of key into the hash.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// hashKey mixes a key into 64 bits, eight bytes per multiply; the top
// bits, which index the array, depend on every byte. Table keys are a
// few bytes (a session hash, an address, a VNI), so the common case is
// one round. tag is what a slot holding the key stores: the key itself
// under its length when it fits (equal tags, equal keys), else tagLong
// over the hash (equal tags, likely equal keys).
func hashKey(key []byte) (h, tag uint64) {
	if len(key) <= exactInlineKey {
		for i, b := range key {
			tag |= uint64(b) << (8 * uint(i))
		}
		tag |= uint64(len(key)) << 56
		return hashInline(tag), tag
	}
	h = uint64(len(key))
	for len(key) > 0 {
		var w uint64
		n := min(len(key), 8)
		for i, b := range key[:n] {
			w |= uint64(b) << (8 * uint(i))
		}
		h = mix(h, w)
		key = key[n:]
	}
	h *= 0xD6E8FEB86659FD93
	return h, tagLong | h>>8
}

// hashInline is hashKey of the key an inline tag holds.
func hashInline(tag uint64) uint64 {
	return mix(tag>>56, tag&^tagLong) * 0xD6E8FEB86659FD93
}

// hash returns hashKey of the slot's key.
func (s *exactSlot) hash() uint64 {
	if s.long == nil {
		return hashInline(s.tag)
	}
	h, _ := hashKey(*s.long)
	return h
}

// holds reports whether the slot holds the key that tag was made from.
func (s *exactSlot) holds(tag uint64, key []byte) bool {
	return s.tag == tag && (s.long == nil || bytes.Equal(*s.long, key))
}

// find probes for key. It returns the index holding it, or -1 and the
// index a new slot for it belongs in (the first tombstone on the probe
// chain, else the empty slot that ended it).
func (a *exactArray) find(h, tag uint64, key []byte) (at, free int) {
	mask := len(a.slots) - 1
	free = -1
	for i := int(h >> a.shift); ; i = (i + 1) & mask {
		switch s := a.slots[i].Load(); {
		case s == nil:
			if free < 0 {
				free = i
			}
			return -1, free
		case s == exactTombstone:
			if free < 0 {
				free = i
			}
		case s.holds(tag, key):
			return i, -1
		}
	}
}

// grown returns a fresh array, the smallest that is at most half full
// with one more entry than live, holding every live slot of a and no
// tombstones.
func (a *exactArray) grown(live int) *exactArray {
	size := exactMinSlots
	for size < 2*(live+1) {
		size *= 2
	}
	next := newExactArray(size)
	mask := size - 1
	for i := range a.slots {
		s := a.slots[i].Load()
		if s == nil || s == exactTombstone {
			continue
		}
		j := int(s.hash() >> next.shift)
		for next.slots[j].Load() != nil {
			j = (j + 1) & mask
		}
		next.slots[j].Store(s)
	}
	return next
}

// newExactSlot builds the slot for key and e in one allocation when
// both fit inline.
func newExactSlot(tag uint64, key []byte, action string, params []uint64) *exactSlot {
	var s *exactSlot
	if len(key) <= exactInlineKey {
		s = new(exactSlot)
	} else {
		l := &exactLongSlot{key: append([]byte(nil), key...)}
		s, l.long = &l.exactSlot, &l.key
	}
	s.tag, s.e.Action = tag, action
	switch n := len(params); {
	case n > len(s.param):
		s.e.Params = append([]uint64(nil), params...)
	case n > 0:
		s.e.Params = s.param[:copy(s.param[:], params)]
	}
	return s
}

// Insert adds or replaces the entry for key, copying both. It fails
// when the table is at capacity and key is new, mirroring hardware
// table exhaustion.
func (t *ExactTable) Insert(key []byte, e Entry) error {
	return t.insert(key, e.Action, e.Params)
}

// Insert1 is Insert for an entry of one param — a session, a mapping —
// taken apart from its action: nothing of the entry is the caller's to
// build, so nothing of it escapes to the heap but the slot.
func (t *ExactTable) Insert1(key []byte, action string, param uint64) error {
	return t.insert(key, action, []uint64{param})
}

// insert is Insert with the entry's fields apart.
//
//dv:snapshotwriter
func (t *ExactTable) insert(key []byte, action string, params []uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, tag := hashKey(key)
	cur := t.arr.Load()
	a := cur
	at, free := a.find(h, tag, key)
	if at < 0 {
		live := t.Len()
		if t.cap > 0 && live >= t.cap {
			return fmt.Errorf("mau: exact table full (%d entries)", t.cap)
		}
		// Keep occupied slots (live + tombstones) at or below half the
		// array: every probe dereferences a slot, so chains stay short.
		if 2*(live+t.tombs+1) > len(a.slots) {
			a = a.grown(live)
			t.tombs = 0
			_, free = a.find(h, tag, key)
		} else if a.slots[free].Load() == exactTombstone {
			t.tombs--
		}
		at = free
		t.n.Add(1)
	}
	a.slots[at].Store(newExactSlot(tag, key, action, params))
	if a != cur {
		t.arr.Store(a) // a grown array is published complete, the new entry included
	}
	return nil
}

// Delete removes the entry for key, reporting whether it existed. The
// slot becomes a tombstone so probe chains through it stay intact; the
// next growth drops it.
//
//dv:snapshotwriter
func (t *ExactTable) Delete(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.arr.Load()
	h, tag := hashKey(key)
	at, _ := a.find(h, tag, key)
	if at < 0 {
		return false
	}
	a.slots[at].Store(exactTombstone)
	t.tombs++
	t.n.Add(-1)
	return true
}

// Lookup returns the entry for key. Its Params are the table's own:
// read them, do not write them.
//
//dv:hotpath
func (t *ExactTable) Lookup(key []byte) (Entry, bool) {
	a := t.arr.Load()
	h, tag := hashKey(key)
	mask := len(a.slots) - 1
	for i := int(h >> a.shift); ; i = (i + 1) & mask {
		s := a.slots[i].Load()
		if s == nil {
			return Entry{}, false
		}
		if s.holds(tag, key) {
			return s.e, true
		}
	}
}

// Len returns the number of installed entries.
func (t *ExactTable) Len() int { return int(t.n.Load()) }

// LPM32 is a longest-prefix-match table over 32-bit keys (IPv4
// routes): a trie of 8-bit stride, so a lookup reads at most four
// nodes. A prefix lives in the node its last bit falls in — lengths
// 1–8 in the root, 9–16 one level down, and so on; /0 sits in the
// snapshot — expanded there over every address byte it covers, so a
// node answers "longest prefix ending here" with one bitmap test. Nodes
// are popcount-compressed (lpmNode) and immutable once published: a
// write copies the nodes on the path to the prefix, shares every other
// subtree with the previous generation, and swaps the root.
type LPM32 struct {
	mu   sync.Mutex // serialises writers
	snap atomic.Pointer[lpmSnap]
}

// lpmSnap is one published generation of the trie.
type lpmSnap struct {
	root *lpmNode
	def  *Entry // the /0 entry
	n    int
}

// lpmStride is the address bits one node consumes.
const lpmStride = 8

// bitmap256 is a set of byte values with the rank structure of a
// popcount-compressed array: value b's slot in the dense slice beside
// the bitmap is the number of set bits below b.
type bitmap256 struct {
	bits [4]uint64
	base [4]uint8 // base[w] = set bits in words below w (at most 192)
}

// rank returns b's index in the dense slice and whether b is set.
//
//dv:hotpath
func (m *bitmap256) rank(b uint8) (int, bool) {
	w, bit := b>>6, b&63
	word := m.bits[w]
	return int(m.base[w]) + bits.OnesCount64(word&(1<<bit-1)), word>>bit&1 != 0
}

// put adds (on) or removes b.
func (m *bitmap256) put(b uint8, on bool) {
	m.bits[b>>6] &^= 1 << (b & 63)
	if on {
		m.bits[b>>6] |= 1 << (b & 63)
	}
	m.rebase()
}

// rebase derives base from bits.
func (m *bitmap256) rebase() {
	for w := 1; w < len(m.bits); w++ {
		m.base[w] = m.base[w-1] + uint8(bits.OnesCount64(m.bits[w-1]))
	}
}

// lpmNode is one stride of the trie, the Tree-Bitmap/Poptrie shape: two
// 256-bit bitmaps index two dense slices, so a node with k children and
// prefixes covering c byte values costs k+c pointers, not 512.
type lpmNode struct {
	children bitmap256 // byte values with a subtree
	covered  bitmap256 // byte values some prefix ending in this node covers
	child    []*lpmNode
	best     []*Entry    // per covered byte value, the longest such prefix's entry
	own      []lpmPrefix // the prefixes ending here, which best is expanded from
}

// lpmPrefix is a prefix within its node: the top len bits of bits.
type lpmPrefix struct {
	e    *Entry
	bits uint8
	len  uint8 // 1–8
}

// NewLPM32 creates an empty LPM table.
func NewLPM32() *LPM32 { return &LPM32{} }

// with returns a copy of the subtree at n — the node that consumes the
// address byte shift bits up — in which prefix/plen holds entry e (nil
// removes it), pruning nodes left with neither prefix nor child. plen
// counts from this node's first bit. delta reports the change in entry
// count.
func (n *lpmNode) with(prefix uint32, shift uint, plen int, e *Entry) (out *lpmNode, delta int) {
	var c lpmNode
	if n != nil {
		c = *n
	}
	b := uint8(prefix >> shift)
	if plen <= lpmStride {
		c.own, delta = withPrefix(c.own, lpmPrefix{e: e, bits: b &^ (0xFF >> plen), len: uint8(plen)})
		c.expand()
	} else {
		i, ok := c.children.rank(b)
		var sub *lpmNode
		if ok {
			sub = c.child[i]
		}
		sub, delta = sub.with(prefix, shift-lpmStride, plen-lpmStride, e)
		// The dense slice is shared with the previous generation: build
		// a fresh one around the slot that changes.
		kids := append(make([]*lpmNode, 0, len(c.child)+1), c.child[:i]...)
		if sub != nil {
			kids = append(kids, sub)
		}
		if ok {
			i++
		}
		c.child = append(kids, c.child[i:]...)
		c.children.put(b, sub != nil)
	}
	if len(c.own) == 0 && len(c.child) == 0 {
		return nil, delta
	}
	return &c, delta
}

// withPrefix returns a copy of own in which p's prefix holds p.e (nil
// removes it).
func withPrefix(own []lpmPrefix, p lpmPrefix) (out []lpmPrefix, delta int) {
	out = make([]lpmPrefix, 0, len(own)+1)
	for _, o := range own {
		if o.len == p.len && o.bits == p.bits {
			delta--
			continue
		}
		out = append(out, o)
	}
	if p.e != nil {
		delta++
		out = append(out, p)
	}
	return out, delta
}

// expand derives covered and best from own: every prefix written over
// the byte values it covers, shorter ones first so longer ones win.
func (n *lpmNode) expand() {
	var slots [256]*Entry
	for l := uint8(1); l <= lpmStride; l++ {
		for _, p := range n.own {
			if p.len != l {
				continue
			}
			for v, end := int(p.bits), int(p.bits)+1<<(lpmStride-l); v < end; v++ {
				slots[v] = p.e
			}
		}
	}
	n.covered = bitmap256{}
	covered := 0
	for v, e := range slots {
		if e != nil {
			n.covered.bits[v>>6] |= 1 << (v & 63)
			covered++
		}
	}
	n.covered.rebase()
	n.best = make([]*Entry, 0, covered)
	for _, e := range slots {
		if e != nil {
			n.best = append(n.best, e)
		}
	}
}

// publish swaps in the trie with prefix/plen set to e (nil deletes),
// returning the change in entry count.
//
//dv:snapshotwriter
func (t *LPM32) publish(prefix uint32, plen int, e *Entry) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var next lpmSnap
	if s := t.snap.Load(); s != nil {
		next = *s
	}
	delta := 0
	if plen == 0 {
		if next.def != nil {
			delta--
		}
		if e != nil {
			delta++
		}
		next.def = e
	} else {
		next.root, delta = next.root.with(prefix, 32-lpmStride, plen, e)
	}
	next.n += delta
	t.snap.Store(&next)
	return delta
}

// Insert adds or replaces the entry for prefix/plen. plen must be in
// [0, 32].
func (t *LPM32) Insert(prefix uint32, plen int, e Entry) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("mau: invalid prefix length %d", plen)
	}
	t.publish(prefix, plen, &e)
	return nil
}

// Delete removes the entry for prefix/plen, reporting whether it
// existed.
func (t *LPM32) Delete(prefix uint32, plen int) bool {
	if plen < 0 || plen > 32 {
		return false
	}
	return t.publish(prefix, plen, nil) < 0
}

// Lookup returns the entry of the longest matching prefix for addr.
//
//dv:hotpath
func (t *LPM32) Lookup(addr uint32) (Entry, bool) {
	s := t.snap.Load()
	if s == nil {
		return Entry{}, false
	}
	best := s.def
	n := s.root
	// A node at shift 0 holds /25–/32 and has no children, so the loop
	// ends there at the latest.
	for shift := uint(32 - lpmStride); n != nil; shift -= lpmStride {
		b := uint8(addr >> shift)
		if i, ok := n.covered.rank(b); ok {
			best = n.best[i]
		}
		i, ok := n.children.rank(b)
		if !ok {
			break
		}
		n = n.child[i]
	}
	if best == nil {
		return Entry{}, false
	}
	return *best, true
}

// Len returns the number of installed prefixes.
func (t *LPM32) Len() int {
	if s := t.snap.Load(); s != nil {
		return s.n
	}
	return 0
}

// TernaryTable is a ternary (value/mask) match table with priorities,
// the model of a TCAM. Lookup returns the highest-priority matching
// rule; ties break toward the earliest-inserted rule, mirroring TCAM
// physical ordering. The rule list is immutable once published; a
// write copies it.
type TernaryTable struct {
	mu   sync.Mutex // serialises writers
	snap atomic.Pointer[ternarySnap]
}

// ternarySnap is one published generation of the rule list, sorted by
// (priority desc, insertion order asc).
type ternarySnap struct {
	rules []ternaryRule
}

// ternaryWordKey is the widest key two machine words hold.
const ternaryWordKey = 16

// ternaryRule is a rule compiled for a word-wide compare: its first 16
// bytes as two little-endian (want, mask) word pairs — byte j of the
// rule is bits 8(j%8) of word j/8, bytes past its width are wildcards —
// so that a key packed the same way matches when k&m == w in both
// words. want = value & mask throughout.
type ternaryRule struct {
	w0, m0, w1, m1 uint64
	width          int    // key bytes the rule constrains; a shorter key cannot match
	tail           []byte // bytes 16… of a wider rule: want, then mask
	priority       int
	entry          Entry
}

// packWords packs the first 16 bytes of key into two little-endian
// words, zero past its end.
//
//dv:hotpath
func packWords(key []byte) (k0, k1 uint64) {
	switch {
	case len(key) >= ternaryWordKey:
		return binary.LittleEndian.Uint64(key), binary.LittleEndian.Uint64(key[8:])
	case len(key) >= 8:
		return binary.LittleEndian.Uint64(key), packWord(key[8:])
	}
	return packWord(key), 0
}

// packWord packs fewer than eight bytes.
func packWord(b []byte) (w uint64) {
	for j, v := range b {
		w |= uint64(v) << (8 * uint(j))
	}
	return w
}

// NewTernaryTable creates an empty ternary table.
func NewTernaryTable() *TernaryTable { return &TernaryTable{} }

// Insert adds a rule. value and mask must have equal length; key bytes
// outside the mask are wildcarded. Higher priority wins.
//
//dv:snapshotwriter
func (t *TernaryTable) Insert(value, mask []byte, priority int, e Entry) error {
	if len(value) != len(mask) {
		return fmt.Errorf("mau: ternary value/mask length mismatch: %d vs %d", len(value), len(mask))
	}
	r := ternaryRule{width: len(value), priority: priority, entry: e}
	r.m0, r.m1 = packWords(mask)
	r.w0, r.w1 = packWords(value)
	r.w0, r.w1 = r.w0&r.m0, r.w1&r.m1
	if n := len(value) - ternaryWordKey; n > 0 {
		r.tail = make([]byte, 2*n)
		copy(r.tail[n:], mask[ternaryWordKey:])
		for i, v := range value[ternaryWordKey:] {
			r.tail[i] = v & r.tail[n+i]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur []ternaryRule
	if s := t.snap.Load(); s != nil {
		cur = s.rules
	}
	// Behind every rule of equal or higher priority.
	pos := len(cur)
	for i := range cur {
		if cur[i].priority < priority {
			pos = i
			break
		}
	}
	next := make([]ternaryRule, 0, len(cur)+1)
	next = append(append(append(next, cur[:pos]...), r), cur[pos:]...)
	t.snap.Store(&ternarySnap{rules: next})
	return nil
}

// match is the one match loop: the first rule in priority order whose
// word pairs accept k0, k1 — a key of n bytes packed as packWords does —
// and, for a rule wider than two words, whose tail accepts the key
// bytes from 16 on.
//
//dv:hotpath
func (t *TernaryTable) match(k0, k1 uint64, n int, rest []byte) *Entry {
	s := t.snap.Load()
	if s == nil {
		return nil
	}
next:
	for i := range s.rules {
		r := &s.rules[i]
		if k0&r.m0 != r.w0 || k1&r.m1 != r.w1 || n < r.width {
			continue
		}
		want, mask := r.tail[:len(r.tail)/2], r.tail[len(r.tail)/2:]
		for j, w := range want {
			if rest[j]&mask[j] != w {
				continue next
			}
		}
		return &r.entry
	}
	return nil
}

// LookupWords is Lookup for a key of n ≤ 16 bytes the caller already
// holds as two little-endian words (byte j of the key in
// bits 8(j%8) of word j/8, zero past n). The entry is the table's own:
// read it, do not write it; nil is a miss.
//
//dv:hotpath
func (t *TernaryTable) LookupWords(k0, k1 uint64, n int) *Entry {
	return t.match(k0, k1, min(n, ternaryWordKey), nil)
}

// Lookup returns the entry of the highest-priority rule matching key.
// The key must be at least as long as the rules' masks.
//
//dv:hotpath
func (t *TernaryTable) Lookup(key []byte) (Entry, bool) {
	k0, k1 := packWords(key)
	var rest []byte
	if len(key) > ternaryWordKey {
		rest = key[ternaryWordKey:]
	}
	if e := t.match(k0, k1, len(key), rest); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Len returns the number of installed rules.
func (t *TernaryTable) Len() int {
	if s := t.snap.Load(); s != nil {
		return len(s.rules)
	}
	return 0
}

// Clear removes all rules.
//
//dv:snapshotwriter
func (t *TernaryTable) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snap.Store(nil)
}
