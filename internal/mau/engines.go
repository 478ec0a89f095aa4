package mau

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// The three match engines follow the P4 split of data-plane reads and
// control-plane writes: Lookup takes no lock and writes no shared
// memory, so any number of injectors read one table without touching a
// common cache line; writers serialise on a mutex. TernaryTable and
// LPM32 are written at configuration rate, so each write builds a new
// immutable generation (copy-on-write rule slice, path-copying trie)
// and swaps one pointer. ExactTable is written once per new flow, so a
// whole-table copy per insert is out: a write changes one slot's words
// in place under the slot's version word, which readers check (see its
// doc).

// Entry is a table entry: which action to run and its runtime
// parameters, in declaration order of the action's Params.
type Entry struct {
	Action string
	Params []uint64
}

// ExactTable is an exact-match table keyed by opaque byte strings: an
// open-addressed array of plain words, as a switch's SRAM holds one,
// with no pointer and no allocation per entry. A slot is three words —
// meta (version, state, interned action), the key's tag, one param —
// and an entry that does not fit (a key over seven bytes, more than one
// param) spills into a record of its generation's side store, which the
// param word indexes. Slots come in groups of eight, and each group has
// a control word of one byte per slot: empty, tombstone, or live over
// seven bits of the key's hash. A probe matches those bits across the
// word and reads a slot only where they match, so a miss reads no slot.
// Live entries and tombstones fill at most 7 of every 8 slots. A writer
// changes a slot in place with its version odd, then its control byte;
// a Lookup retries a slot whose version was odd or moved while it read,
// so it sees an entry whole, old or new. The array grows by doubling
// its groups into a fresh generation published with one pointer store,
// but never past the ⌈capacity/7⌉ groups that hold capacity entries,
// which it takes at once when they are at most two doublings away; a
// Lookup that loaded the old one finishes against it, complete as of
// the swap. It starts at one group and is never presized to the
// capacity: a session table sized for its worst case would pin that
// memory from the first packet.
type ExactTable struct {
	mu        sync.Mutex // serialises writers; readers never take it
	arr       atomic.Pointer[exactArray]
	acts      atomic.Pointer[[]string] // interned actions, append-only; a slot holds an index
	n         atomic.Int64             // live entries
	tombs     int                      // tombstone control bytes: deleted slots still on probe chains
	spills    int                      // live entries with a side-store record
	recs      int                      // records of arr's side store in use, live or dead
	cap       int
	maxGroups int // the most groups the array grows to: ⌈cap/7⌉, or unbounded
}

// exactArray is one generation of the table: len(ctrl) groups of
// exactGroup slots, slot g*exactGroup+j under byte j of ctrl[g]. Live
// and tombstone bytes number at most exactGroupFill times the groups,
// so some group has an empty byte, and a probe, which goes round the
// groups, meets one.
type exactArray struct {
	ctrl  []atomic.Uint64
	slots []exactSlot
	// spill is the side store. A record is written once, before a slot
	// publishes its index, and never again; a replaced or deleted one
	// stays until the next generation, which copies only live records.
	spill []exactSpill
}

// exactSlot is one entry's words, read and written only through
// sync/atomic. param is the entry's one param, or its side-store
// record's index when meta says spilled.
type exactSlot struct {
	meta, tag, param atomic.Uint64
}

// A slot's meta word: the version in the low 32 bits, odd while a
// writer is inside the slot; then whether it holds an entry and how,
// and the entry's action as an index into the table's action list. A
// slot that holds none is zero above the version.
const (
	metaVersion  = 1<<32 - 1
	metaLive     = 1 << 32 // an entry
	metaOneParam = 1 << 33 // an inline entry with one param
	metaSpilled  = 1 << 34 // the entry is the side-store record param indexes
	metaActShift = 40
	exactMaxActs = 1 << (64 - metaActShift)
)

// A control byte is empty (zero, as a new array holds), a tombstone (a
// deleted entry: probes go on past it), or ctrlLive over the low seven
// bits of the entry's hash. The group index is the high word of hash ×
// groups, which rests on the hash's top bits, so the two hardly agree
// by chance.
const (
	ctrlEmpty = 0x00
	ctrlTomb  = 0x01
	ctrlLive  = 0x80
	// One bit at the bottom, and one at the top, of every byte.
	ctrlLSB uint64 = 0x0101010101010101
	ctrlMSB uint64 = 0x8080808080808080
)

// exactGroup is the slots of a group, exactGroupFill how many of them
// live entries and tombstones may fill, on average over the array.
const (
	exactGroup     = 8
	exactGroupFill = 7
)

// exactSpill is a spilled entry's record: copies of the key, when its
// tag cannot hold it, and of the params.
type exactSpill struct {
	key    []byte
	params []uint64
}

// exactInlineKey is the longest key a tag holds: seven bytes under the
// length byte.
const exactInlineKey = 7

// A tag's top byte is an inline key's length (0–7), or tagLong over 56
// bits of a spilled key's hash.
const tagLong uint64 = 0xFF << 56

// exactMinRecords is the size of a side store's first generation.
const exactMinRecords = 16

// NewExactTable creates a table with the given capacity; capacity 0
// means unbounded.
//
//dv:snapshotwriter
func NewExactTable(capacity int) *ExactTable {
	t := &ExactTable{cap: capacity, maxGroups: math.MaxInt}
	if capacity > 0 {
		t.maxGroups = (capacity + exactGroupFill - 1) / exactGroupFill
	}
	t.arr.Store(newExactArray(1, 0))
	t.acts.Store(new([]string))
	return t
}

func newExactArray(groups, records int) *exactArray {
	a := &exactArray{
		ctrl:  make([]atomic.Uint64, groups),
		slots: make([]exactSlot, groups*exactGroup),
	}
	if records > 0 {
		a.spill = make([]exactSpill, records)
	}
	return a
}

// mix folds one word of key into the hash.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// hashKey mixes a key into 64 bits, eight bytes per multiply; the top
// bits, which pick the group, depend on every byte. Table keys are a
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

// ctrlOf is the control byte of a live entry whose key hashes to h.
func ctrlOf(h uint64) uint8 { return ctrlLive | uint8(h&0x7F) }

// matchCtrl sets the top bit of every byte of the control word c that
// equals b, and of no other: a byte of x is zero exactly where c's is
// b, and its low seven bits plus 0x7F carry into its top bit, never
// into the next byte, unless they are zero.
//
//dv:hotpath
func matchCtrl(c uint64, b uint8) uint64 {
	x := c ^ ctrlLSB*uint64(b)
	return ^(x&^ctrlMSB + ^ctrlMSB | x) & ctrlMSB
}

// matchEmpty sets the top bit of every empty byte of c: top and bottom
// bit clear, which no other control byte is.
//
//dv:hotpath
func matchEmpty(c uint64) uint64 { return ^(c | c<<7) & ctrlMSB }

// matchFree sets the top bit of every empty or tombstone byte of c.
func matchFree(c uint64) uint64 { return ^c & ctrlMSB }

// firstOf is the slot of the lowest byte a match set in group g.
func firstOf(g int, m uint64) int { return g*exactGroup + bits.TrailingZeros64(m)>>3 }

// home is the first group a probe for hash h visits: the high word of
// h × groups, so a group count need not be a power of two.
func (a *exactArray) home(h uint64) int {
	g, _ := bits.Mul64(h, uint64(len(a.ctrl)))
	return int(g)
}

// next is the group a probe visits after g: the next one, round past
// the last.
func (a *exactArray) next(g int) int {
	if g++; g == len(a.ctrl) {
		return 0
	}
	return g
}

// ctrlAt returns slot i's control byte.
func (a *exactArray) ctrlAt(i int) uint8 {
	return uint8(a.ctrl[i/exactGroup].Load() >> (8 * uint(i%exactGroup)))
}

// setCtrl writes slot i's control byte. Writers only, and after the
// slot's words: a reader that sees a live byte then reads a whole slot.
func (a *exactArray) setCtrl(i int, b uint8) {
	w, sh := &a.ctrl[i/exactGroup], 8*uint(i%exactGroup)
	w.Store(w.Load()&^(0xFF<<sh) | uint64(b)<<sh)
}

// load reads the slot's words as of one instant: it retries while a
// writer is inside the slot or was there while it read.
//
//dv:hotpath
func (s *exactSlot) load() (meta, tag, param uint64) {
	for {
		meta = s.meta.Load()
		tag, param = s.tag.Load(), s.param.Load()
		if meta&1 == 0 && s.meta.Load() == meta {
			return meta, tag, param
		}
	}
}

// write replaces the slot's words between two version bumps: odd
// before the first word changes, even again after the last.
func (s *exactSlot) write(meta, tag, param uint64) {
	old := s.meta.Load()
	s.meta.Store(old | 1)
	s.tag.Store(tag)
	s.param.Store(param)
	s.meta.Store(meta | (old+2)&metaVersion)
}

// find probes for key. It returns the slot holding it, or -1 and the
// slot a new entry for it belongs in: the first free one on the probe
// chain, a tombstone or an empty slot of the group that ended it.
// Writers only: no one else changes a slot under them.
func (a *exactArray) find(h, tag uint64, key []byte) (at, free int) {
	free = -1
	fp := ctrlOf(h)
	for g := a.home(h); ; g = a.next(g) {
		c := a.ctrl[g].Load()
		for m := matchCtrl(c, fp); m != 0; m &= m - 1 {
			i := firstOf(g, m)
			s := &a.slots[i]
			if s.tag.Load() == tag && (tag < tagLong || bytes.Equal(a.spill[s.param.Load()].key, key)) {
				return i, -1
			}
		}
		if m := matchFree(c); free < 0 && m != 0 {
			free = firstOf(g, m)
		}
		if matchEmpty(c) != 0 {
			return -1, free
		}
	}
}

// hashOf returns the hash of the key a live slot holds. Writers only.
func (a *exactArray) hashOf(tag, param uint64) uint64 {
	if tag >= tagLong {
		h, _ := hashKey(a.spill[param].key)
		return h
	}
	return hashInline(tag)
}

// passed reports whether a live entry's probe goes through full group
// g: whether an entry in the groups after g, up to the first with an
// empty byte, has its home at or before g on the way round. Every group
// between an entry's home and its own is full, so no entry further on
// can. Writers only.
func (a *exactArray) passed(g int) bool {
	n := len(a.ctrl)
	for at := a.next(g); at != g; at = a.next(at) {
		c := a.ctrl[at].Load()
		for m := c & ctrlMSB; m != 0; m &= m - 1 {
			s := &a.slots[firstOf(at, m)]
			home := a.home(a.hashOf(s.tag.Load(), s.param.Load()))
			if (g-home+n)%n < (at-home+n)%n {
				return true
			}
		}
		if matchEmpty(c) != 0 {
			break
		}
	}
	return false
}

// grown returns a fresh generation of groups groups holding every live
// entry of a and nothing dead, and the side-store records it used:
// when spills entries need records, room for twice that many, so the
// next rebuild for want of a record is at least spills writes away. The
// store is never under exactMinRecords records, nor under an eighth of
// the slots, which bounds a rebuild's amortised cost where a table
// spills few entries.
//
//dv:snapshotwriter
func (a *exactArray) grown(groups, spills int) (*exactArray, int) {
	records := 0
	if spills > 0 {
		records = max(2*spills, exactMinRecords, groups*exactGroup/8)
	}
	next := newExactArray(groups, records)
	used := 0
	for i := range a.slots {
		s := &a.slots[i]
		meta, tag, param := s.meta.Load(), s.tag.Load(), s.param.Load()
		if meta&metaLive == 0 {
			continue
		}
		h := a.hashOf(tag, param)
		if meta&metaSpilled != 0 {
			next.spill[used], param = a.spill[param], uint64(used)
			used++
		}
		g := next.home(h)
		m := matchEmpty(next.ctrl[g].Load())
		for m == 0 {
			g = next.next(g)
			m = matchEmpty(next.ctrl[g].Load())
		}
		// No reader sees next before it is published: no version dance.
		j := firstOf(g, m)
		d := &next.slots[j]
		d.meta.Store(meta &^ metaVersion)
		d.tag.Store(tag)
		d.param.Store(param)
		next.setCtrl(j, ctrlOf(h))
	}
	return next, used
}

// groupsFor returns the group count of the generation that replaces a
// when an insert needs a rebuild: a's own when only the side store is
// short (grow false), when tombstones fill a's share — at least one a
// group — or when a is at the capacity's bound; else twice a's, or the
// bound itself once it is at most twice further, so that a table
// filled to its capacity does not rebuild a last time for the few
// groups left above the doubling.
func (t *ExactTable) groupsFor(a *exactArray, grow bool) int {
	g := len(a.ctrl)
	if !grow || t.tombs >= g {
		return g
	}
	if 4*g >= t.maxGroups {
		return t.maxGroups
	}
	return 2 * g
}

// intern returns action's index in the table's action list, adding a
// copy of it when new. A table has the handful of actions its P4
// declaration names, so a scan finds one.
//
//dv:snapshotwriter
func (t *ExactTable) intern(action string) (uint64, error) {
	acts := *t.acts.Load()
	for i, a := range acts {
		if a == action {
			return uint64(i), nil
		}
	}
	if len(acts) == exactMaxActs {
		return 0, fmt.Errorf("mau: exact table has %d actions", len(acts))
	}
	next := append(acts[:len(acts):len(acts)], strings.Clone(action))
	t.acts.Store(&next)
	return uint64(len(acts)), nil
}

// Insert adds or replaces the entry for key, copying both: nothing of
// either escapes, so a caller's key array and Params literal stay on
// its stack. An entry with a key of at most seven bytes and at most one
// param — a session, a NAT mapping, a VNI — is written into its slot
// and allocates nothing; a spilled entry copies its key and params into
// its record. Insert fails when the table is at capacity and key is
// new, mirroring hardware table exhaustion.
//
//dv:snapshotwriter
func (t *ExactTable) Insert(key []byte, e Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, tag := hashKey(key)
	cur := t.arr.Load()
	a := cur
	at, free := a.find(h, tag, key)
	live := t.Len()
	if at < 0 && t.cap > 0 && live >= t.cap {
		return fmt.Errorf("mau: exact table full (%d entries)", t.cap)
	}
	act, err := t.intern(e.Action)
	if err != nil {
		return err
	}
	spill := tag >= tagLong || len(e.Params) > 1
	// A new entry that takes an empty byte must leave live entries and
	// tombstones at most exactGroupFill a group, so every probe still
	// meets an empty byte; a spilled one needs a free record.
	grow := at < 0 && a.ctrlAt(free) == ctrlEmpty && live+t.tombs+1 > exactGroupFill*len(a.ctrl)
	if grow || spill && t.recs == len(a.spill) {
		spills := t.spills
		if spill {
			spills++
		}
		a, t.recs = a.grown(t.groupsFor(a, grow), spills)
		t.tombs = 0
		at, free = a.find(h, tag, key)
	}
	meta, param := metaLive|act<<metaActShift, uint64(0)
	switch {
	case spill:
		rec := exactSpill{params: slices.Clone(e.Params)}
		if tag >= tagLong {
			rec.key = bytes.Clone(key)
		}
		a.spill[t.recs] = rec
		meta, param = meta|metaSpilled, uint64(t.recs)
		t.recs++
		t.spills++
	case len(e.Params) == 1:
		meta, param = meta|metaOneParam, e.Params[0]
	}
	if at >= 0 {
		if a.slots[at].meta.Load()&metaSpilled != 0 {
			t.spills--
		}
		a.slots[at].write(meta, tag, param)
	} else {
		if a.ctrlAt(free) == ctrlTomb {
			t.tombs--
		}
		a.slots[free].write(meta, tag, param)
		a.setCtrl(free, ctrlOf(h))
		t.n.Add(1)
	}
	if a != cur {
		t.arr.Store(a) // a grown array is published complete, the new entry included
	}
	return nil
}

// Delete removes the entry for key, reporting whether it existed. The
// slot becomes empty unless a probe for another live entry goes through
// its group: none does when the group still has an empty byte, which
// ends every probe that reaches it, nor when no entry in the groups
// after it, up to the first with an empty byte, has its home at or
// before it. Then any tombstone of the group is empty too. Otherwise
// the slot becomes a tombstone, so those probes stay intact, and the
// next rebuild drops it.
func (t *ExactTable) Delete(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.arr.Load()
	h, tag := hashKey(key)
	at, _ := a.find(h, tag, key)
	if at < 0 {
		return false
	}
	if a.slots[at].meta.Load()&metaSpilled != 0 {
		t.spills--
	}
	a.slots[at].write(0, 0, 0)
	g := at / exactGroup
	if c := a.ctrl[g].Load(); matchEmpty(c) == 0 && a.passed(g) {
		a.setCtrl(at, ctrlTomb)
		t.tombs++
	} else {
		tombs := matchFree(c) &^ matchEmpty(c)
		t.tombs -= bits.OnesCount64(tombs)
		a.ctrl[g].Store(c &^ (0xFF << (8 * uint(at%exactGroup))) &^ (tombs >> 7))
	}
	t.n.Add(-1)
	return true
}

// Hit is the entry a Lookup found, as one consistent reading of its
// slot: an inline entry's param is in the Hit itself, a spilled one's
// params in its record, which is never rewritten. It stays what it
// read whatever the table does next, and reading it allocates nothing.
type Hit struct {
	t     *ExactTable // resolves the interned action
	rec   *exactSpill // a spilled entry's record, else nil
	param uint64      // an inline entry's param
	meta  uint64
}

// Action returns the entry's action.
func (h Hit) Action() string { return (*h.t.acts.Load())[h.meta>>metaActShift] }

// Len returns the number of the entry's params.
//
//dv:hotpath
func (h Hit) Len() int {
	if h.rec != nil {
		return len(h.rec.params)
	}
	if h.meta&metaOneParam != 0 {
		return 1
	}
	return 0
}

// Param returns the entry's param i, i < Len().
//
//dv:hotpath
func (h Hit) Param(i int) uint64 {
	if h.rec != nil {
		return h.rec.params[i]
	}
	one := [1]uint64{h.param}
	return one[:h.Len()][i]
}

// Lookup returns the entry for key. It reads a slot only where a
// control byte matches the key's, and decides a miss from the control
// words alone: the first group with an empty byte ends the probe.
//
//dv:hotpath
func (t *ExactTable) Lookup(key []byte) (Hit, bool) {
	a := t.arr.Load()
	h, tag := hashKey(key)
	fp := ctrlOf(h)
	for g := a.home(h); ; g = a.next(g) {
		c := a.ctrl[g].Load()
		for m := matchCtrl(c, fp); m != 0; m &= m - 1 {
			meta, stag, param := a.slots[firstOf(g, m)].load()
			switch {
			case stag != tag || meta&metaLive == 0:
				// Another key, or one deleted since c was read.
			case meta&metaSpilled == 0:
				return Hit{t: t, param: param, meta: meta}, true
			default:
				if rec := &a.spill[param]; tag < tagLong || bytes.Equal(rec.key, key) {
					return Hit{t: t, rec: rec, meta: meta}, true
				}
			}
		}
		if matchEmpty(c) != 0 {
			return Hit{}, false
		}
	}
}

// Has reports whether key has an entry.
//
//dv:hotpath
func (t *ExactTable) Has(key []byte) bool {
	_, ok := t.Lookup(key)
	return ok
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
// The entry is the published one, as LookupWords hands out: read it,
// do not write it; a miss is nil, false.
//
//dv:hotpath
func (t *LPM32) Lookup(addr uint32) (*Entry, bool) {
	s := t.snap.Load()
	if s == nil {
		return nil, false
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
	return best, best != nil
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
