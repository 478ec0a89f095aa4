package mau

// The match kernels the word-wide ones replaced, kept as the references
// the differential tests hold the new code to: a binary trie walked one
// bit per node, and a TCAM scanned byte by byte.

type refLPMNode struct {
	child [2]*refLPMNode
	entry *Entry
}

// refLPM is the binary-trie LPM32 without its snapshot publication.
type refLPM struct {
	root *refLPMNode
	n    int
}

func (n *refLPMNode) with(prefix uint32, depth, plen int, e *Entry) (out *refLPMNode, delta int) {
	var c refLPMNode
	if n != nil {
		c = *n
	}
	if depth == plen {
		switch {
		case c.entry == nil && e != nil:
			delta = 1
		case c.entry != nil && e == nil:
			delta = -1
		}
		c.entry = e
	} else {
		bit := prefix >> (31 - depth) & 1
		c.child[bit], delta = c.child[bit].with(prefix, depth+1, plen, e)
	}
	if c.entry == nil && c.child[0] == nil && c.child[1] == nil {
		return nil, delta
	}
	return &c, delta
}

func (t *refLPM) set(prefix uint32, plen int, e *Entry) int {
	root, delta := t.root.with(prefix, 0, plen, e)
	t.root, t.n = root, t.n+delta
	return delta
}

func (t *refLPM) Lookup(addr uint32) (Entry, bool) {
	var best *Entry
	n := t.root
	for i := 0; n != nil; i++ {
		if n.entry != nil {
			best = n.entry
		}
		if i == 32 {
			break
		}
		n = n.child[addr>>(31-i)&1]
	}
	if best == nil {
		return Entry{}, false
	}
	return *best, true
}

type refTernaryRule struct {
	want, mask []byte // want = value & mask
	priority   int
	entry      Entry
}

// refTernary is the byte-wise TernaryTable: rules sorted by (priority
// desc, insertion order asc), each compared one byte at a time.
type refTernary struct {
	rules []refTernaryRule
}

func (t *refTernary) Insert(value, mask []byte, priority int, e Entry) {
	r := refTernaryRule{want: make([]byte, len(value)), mask: append([]byte(nil), mask...), priority: priority, entry: e}
	for i := range value {
		r.want[i] = value[i] & mask[i]
	}
	pos := len(t.rules)
	for i := range t.rules {
		if t.rules[i].priority < priority {
			pos = i
			break
		}
	}
	t.rules = append(t.rules[:pos:pos], append([]refTernaryRule{r}, t.rules[pos:]...)...)
}

func (t *refTernary) Lookup(key []byte) (Entry, bool) {
next:
	for i := range t.rules {
		r := &t.rules[i]
		if len(key) < len(r.want) {
			continue
		}
		k, mask := key[:len(r.want)], r.mask[:len(r.want)]
		for j, w := range r.want {
			if k[j]&mask[j] != w {
				continue next
			}
		}
		return r.entry, true
	}
	return Entry{}, false
}
