package route

import (
	"fmt"
	"sort"
	"strings"

	"dejavu/internal/asic"
)

// This file gives the §3.4 branching tables a declarative, diffable
// form. Branching.Decide answers queries at packet rate; Program
// renders the same decision function as an explicit entry set — one
// entry per (ingress pipeline, service path, service index) — so two
// builds can be compared entry-by-entry and a live reconfiguration can
// apply exactly the entries that changed instead of reloading every
// table (§7: "the data plane programs have a much higher loading
// cost").
//
// Entries are symbolic: a hop toward another pipeline is recorded as
// "loopback toward pipeline N", not as a concrete loopback port,
// because the port is chosen per-packet by the loopback spreading
// policy. Two programs are therefore equal exactly when they make the
// same routing decisions, regardless of how recirculation bandwidth is
// spread.

// EntryAction is the action half of one branching-table entry.
type EntryAction uint8

// Entry actions.
const (
	// ActForward sends the packet out a concrete front-panel port (a
	// static exit or a wire toward a remote switch).
	ActForward EntryAction = iota
	// ActLoopback sends the packet toward another pipeline's ingress
	// through whatever loopback port the spreading policy picks.
	ActLoopback
	// ActResubmit re-enters the same ingress pipe.
	ActResubmit
	// ActToCPU punts the packet to the control plane.
	ActToCPU
)

// String names the action.
func (a EntryAction) String() string {
	switch a {
	case ActForward:
		return "forward"
	case ActLoopback:
		return "loopback"
	case ActResubmit:
		return "resubmit"
	default:
		return "to_cpu"
	}
}

// EntryKey identifies one branching-table entry: the ingress pipelet
// holding the table plus the (service path, service index) match.
type EntryKey struct {
	Pipeline int    `json:"pipeline"`
	Path     uint16 `json:"path"`
	Index    uint8  `json:"index"`
}

// Entry is one branching-table entry: a key and its symbolic action.
type Entry struct {
	Key    EntryKey    `json:"key"`
	Action EntryAction `json:"action"`
	// Port is the concrete egress port of an ActForward entry.
	Port asic.PortID `json:"port,omitempty"`
	// Target is the destination pipeline of an ActLoopback entry.
	Target int `json:"target,omitempty"`
}

// String renders the entry canonically, e.g.
// "ingress 0: path 20 idx 3 -> loopback(pipe 1)".
func (e Entry) String() string {
	var act string
	switch e.Action {
	case ActForward:
		act = fmt.Sprintf("forward(port %d)", e.Port)
	case ActLoopback:
		act = fmt.Sprintf("loopback(pipe %d)", e.Target)
	default:
		act = e.Action.String()
	}
	return fmt.Sprintf("ingress %d: path %d idx %d -> %s", e.Key.Pipeline, e.Key.Path, e.Key.Index, act)
}

// TableProgram is the full branching-table state of a deployment:
// every entry of every ingress pipelet, sorted by key. It is an
// immutable build artifact — diff two of them to get the write-set a
// live reconfiguration must apply.
type TableProgram struct {
	Entries []Entry `json:"entries"`
}

// String renders the program one entry per line in key order — the
// canonical form used for byte-identity comparisons and hashing.
func (p TableProgram) String() string {
	var sb strings.Builder
	for _, e := range p.Entries {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Len returns the number of entries.
func (p TableProgram) Len() int { return len(p.Entries) }

// keyLess orders entry keys (pipeline, path, index).
func keyLess(a, b EntryKey) bool {
	if a.Pipeline != b.Pipeline {
		return a.Pipeline < b.Pipeline
	}
	if a.Path != b.Path {
		return a.Path < b.Path
	}
	return a.Index < b.Index
}

// Program renders the branching function as the explicit entry set
// installed across the given number of ingress pipelines: the compiled
// entries Decide reads, for the outPort-unset case (the outPort-set
// fast path is a priority rule common to every entry, not table
// content).
func (b *Branching) Program(pipelines int) TableProgram {
	var p TableProgram
	for pipe := 0; pipe < pipelines; pipe++ {
		for ci, c := range b.chains {
			for index, h := range b.hops[ci] {
				e := Entry{Key: EntryKey{Pipeline: pipe, Path: c.PathID, Index: uint8(index)}, Action: h.act}
				switch {
				case h.ingress == pipe:
					e.Action = ActResubmit
				case h.act == ActForward:
					e.Port = h.port
				case h.act == ActLoopback:
					e.Target = h.target
				}
				p.Entries = append(p.Entries, e)
			}
		}
	}
	sort.Slice(p.Entries, func(i, j int) bool { return keyLess(p.Entries[i].Key, p.Entries[j].Key) })
	return p
}

// OpKind classifies one entry in a table-program diff.
type OpKind uint8

// Diff operation kinds.
const (
	OpAdd OpKind = iota
	OpDel
	OpMod
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpDel:
		return "del"
	default:
		return "mod"
	}
}

// EntryOp is one element of the minimal write-set between two table
// programs: add a new entry, delete a removed one, or modify the
// action of an entry whose key survives.
type EntryOp struct {
	Op    OpKind `json:"op"`
	Entry Entry  `json:"entry"`
}

// String renders the op canonically, e.g. "add ingress 0: ...".
func (o EntryOp) String() string { return o.Op.String() + " " + o.Entry.String() }

// Diff computes the minimal entry write-set turning one table program
// into another, sorted by key.
func Diff(from, to TableProgram) []EntryOp {
	prev := make(map[EntryKey]Entry, len(from.Entries))
	for _, e := range from.Entries {
		prev[e.Key] = e
	}
	var ops []EntryOp
	seen := make(map[EntryKey]bool, len(to.Entries))
	for _, e := range to.Entries {
		seen[e.Key] = true
		before, had := prev[e.Key]
		switch {
		case !had:
			ops = append(ops, EntryOp{Op: OpAdd, Entry: e})
		case before != e:
			ops = append(ops, EntryOp{Op: OpMod, Entry: e})
		}
	}
	for _, e := range from.Entries {
		if !seen[e.Key] {
			ops = append(ops, EntryOp{Op: OpDel, Entry: e})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Entry.Key != ops[j].Entry.Key {
			return keyLess(ops[i].Entry.Key, ops[j].Entry.Key)
		}
		return ops[i].Op < ops[j].Op
	})
	return ops
}

// Apply replays a write-set over a program, returning the resulting
// program (sorted). It is the bookkeeping mirror of what a controller
// transaction does to the installed tables; equivalence tests use it
// to prove old + diff == new.
func (p TableProgram) Apply(ops []EntryOp) TableProgram {
	m := make(map[EntryKey]Entry, len(p.Entries))
	for _, e := range p.Entries {
		m[e.Key] = e
	}
	for _, op := range ops {
		switch op.Op {
		case OpAdd, OpMod:
			m[op.Entry.Key] = op.Entry
		case OpDel:
			delete(m, op.Entry.Key)
		}
	}
	out := TableProgram{Entries: make([]Entry, 0, len(m))}
	for _, e := range m {
		out.Entries = append(out.Entries, e)
	}
	sort.Slice(out.Entries, func(i, j int) bool { return keyLess(out.Entries[i].Key, out.Entries[j].Key) })
	return out
}
