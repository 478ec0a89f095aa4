package p4

import (
	"errors"
	"strings"
	"testing"
)

func TestParserGraphBasics(t *testing.T) {
	g := BasicIPv4Parser()
	if err := g.Validate(); err != nil {
		t.Fatalf("BasicIPv4Parser invalid: %v", err)
	}
	// eth, ipv4, tcp, udp, icmp = 5 parse states.
	if got := g.ParseStates(); got != 5 {
		t.Errorf("ParseStates = %d, want 5", got)
	}
	if !g.HasVertex(Vertex{Type: "ipv4", Offset: OffIPv4Plain}) {
		t.Error("ipv4@14 missing")
	}
	reach := g.Reachable()
	if !reach[Accept()] {
		t.Error("accept not reachable")
	}
}

func TestParserEdgeRules(t *testing.T) {
	g := NewParserGraph(EthernetStart())
	eth := g.Start
	ip := Vertex{Type: "ipv4", Offset: 14}
	if err := g.AddEdge(Transition{From: eth, Select: "ethernet.ether_type", Value: 0x800, To: ip}); err != nil {
		t.Fatal(err)
	}
	// Duplicate identical edge: idempotent.
	if err := g.AddEdge(Transition{From: eth, Select: "ethernet.ether_type", Value: 0x800, To: ip}); err != nil {
		t.Errorf("idempotent edge rejected: %v", err)
	}
	if len(g.Edges()) != 1 {
		t.Errorf("duplicate edge added: %d edges", len(g.Edges()))
	}
	// Conflicting value: same select value to a different vertex.
	other := Vertex{Type: "arp", Offset: 14}
	if err := g.AddEdge(Transition{From: eth, Select: "ethernet.ether_type", Value: 0x800, To: other}); err == nil {
		t.Error("conflicting transition accepted")
	}
	// Non-advancing edge: would create a cycle.
	if err := g.AddEdge(Transition{From: ip, Default: true, To: eth}); err == nil {
		t.Error("offset-regressing edge accepted")
	}
	// Conflicting defaults.
	if err := g.AddEdge(Transition{From: eth, Default: true, To: Accept()}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(Transition{From: eth, Default: true, To: other}); err == nil {
		t.Error("conflicting default accepted")
	}
}

func TestMustEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEdge did not panic on conflicting edge")
		}
	}()
	g := NewParserGraph(EthernetStart())
	g.MustEdge(Transition{From: g.Start, Default: true, To: Accept()})
	g.MustEdge(Transition{From: g.Start, Default: true, To: Vertex{Type: "ipv4", Offset: 14}})
}

func TestParserValidateDeadEnd(t *testing.T) {
	g := NewParserGraph(EthernetStart())
	dead := Vertex{Type: "ipv4", Offset: 14}
	g.MustEdge(Transition{From: g.Start, Select: "ethernet.ether_type", Value: 0x800, To: dead})
	// dead has no outgoing edge to accept.
	if err := g.Validate(); err == nil {
		t.Error("graph with dead-end vertex validated")
	} else if !strings.Contains(err.Error(), "accept") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestMergeParsersDisambiguatesByOffset(t *testing.T) {
	table := NewGlobalIDTable()
	merged, err := MergeParsers(table, BasicIPv4Parser(), SFCIPv4Parser())
	if err != nil {
		t.Fatal(err)
	}
	// IPv4 appears at two offsets: 14 (plain) and 34 (after SFC).
	if !merged.HasVertex(Vertex{Type: "ipv4", Offset: OffIPv4Plain}) {
		t.Error("ipv4@14 lost in merge")
	}
	if !merged.HasVertex(Vertex{Type: "ipv4", Offset: OffIPv4SFC}) {
		t.Error("ipv4@34 lost in merge")
	}
	id14, ok14 := table.Lookup(Vertex{Type: "ipv4", Offset: OffIPv4Plain})
	id34, ok34 := table.Lookup(Vertex{Type: "ipv4", Offset: OffIPv4SFC})
	if !ok14 || !ok34 {
		t.Fatal("global IDs not assigned")
	}
	if id14 == id34 {
		t.Error("distinct (type,offset) vertices share a global ID")
	}
	if err := merged.Validate(); err != nil {
		t.Errorf("merged parser invalid: %v", err)
	}
}

func TestMergeParsersIdempotent(t *testing.T) {
	table := NewGlobalIDTable()
	a, err := MergeParsers(table, SFCIPv4Parser(), SFCIPv4Parser())
	if err != nil {
		t.Fatal(err)
	}
	b := SFCIPv4Parser()
	if a.ParseStates() != b.ParseStates() {
		t.Errorf("self-merge changed state count: %d vs %d", a.ParseStates(), b.ParseStates())
	}
	if len(a.Edges()) != len(b.Edges()) {
		t.Errorf("self-merge changed edge count: %d vs %d", len(a.Edges()), len(b.Edges()))
	}
}

func TestMergeParsersConflict(t *testing.T) {
	// Two NFs that disagree about what follows EtherType 0x0800.
	g1 := NewParserGraph(EthernetStart())
	g1.MustEdge(Transition{From: g1.Start, Select: "ethernet.ether_type", Value: 0x800,
		To: Vertex{Type: "ipv4", Offset: 14}})
	g1.MustEdge(Transition{From: Vertex{Type: "ipv4", Offset: 14}, Default: true, To: Accept()})
	g1.MustEdge(Transition{From: g1.Start, Default: true, To: Accept()})

	g2 := NewParserGraph(EthernetStart())
	g2.MustEdge(Transition{From: g2.Start, Select: "ethernet.ether_type", Value: 0x800,
		To: Vertex{Type: "arp", Offset: 14}})
	g2.MustEdge(Transition{From: Vertex{Type: "arp", Offset: 14}, Default: true, To: Accept()})
	g2.MustEdge(Transition{From: g2.Start, Default: true, To: Accept()})

	// Every conflict is reported with the graph it came from and the
	// earlier graph it contradicts, and the rest still merges.
	g3 := NewParserGraph(EthernetStart())
	g3.MustEdge(Transition{From: g3.Start, Default: true, To: Vertex{Type: "vlan", Offset: 14}})
	g3.MustEdge(Transition{From: Vertex{Type: "vlan", Offset: 14}, Default: true, To: Accept()})
	merged, err := MergeParsers(NewGlobalIDTable(), g1, g2, g3)
	var me *MergeError
	if !errors.As(err, &me) {
		t.Fatalf("conflicting parsers: error %v, want a *MergeError", err)
	}
	want := []struct {
		fragment, owner int
		ownerTo         Vertex
	}{{1, 0, Vertex{Type: "ipv4", Offset: 14}}, {2, 1, Accept()}}
	if len(me.Conflicts) != len(want) {
		t.Fatalf("%d conflicts, want %d: %v", len(me.Conflicts), len(want), err)
	}
	for i, w := range want {
		if c := me.Conflicts[i]; c.Fragment != w.fragment || c.Owner != w.owner || c.OwnerTo != w.ownerTo {
			t.Errorf("conflict %d: %+v, want fragment %d against %d's %s", i, c, w.fragment, w.owner, w.ownerTo)
		}
	}
	if merged == nil || !merged.HasVertex(Vertex{Type: "arp", Offset: 14}) || len(merged.Edges()) != 5 {
		t.Errorf("the merge did not go on past the conflicts: %v", merged.Edges())
	}
}

func TestMergeParsersStartMismatch(t *testing.T) {
	g1 := BasicIPv4Parser()
	g2 := NewParserGraph(Vertex{Type: "ipv4", Offset: 0})
	g2.MustEdge(Transition{From: g2.Start, Default: true, To: Accept()})
	if _, err := MergeParsers(NewGlobalIDTable(), g1, g2); err == nil {
		t.Error("parsers with different start vertices merged")
	}
	if _, err := MergeParsers(NewGlobalIDTable()); err == nil {
		t.Error("empty merge succeeded")
	}
}

func TestGlobalIDTable(t *testing.T) {
	tb := NewGlobalIDTable()
	v1 := Vertex{Type: "ipv4", Offset: 14}
	v2 := Vertex{Type: "ipv4", Offset: 34}
	id1 := tb.ID(v1)
	if got := tb.ID(v1); got != id1 {
		t.Error("ID not stable")
	}
	id2 := tb.ID(v2)
	if id1 == id2 {
		t.Error("distinct vertices share ID")
	}
	// All accept vertices share one ID.
	a1 := tb.ID(Vertex{Type: AcceptType, Offset: 50})
	a2 := tb.ID(Vertex{Type: AcceptType, Offset: 90})
	if a1 != a2 {
		t.Error("accept vertices have distinct IDs")
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d, want 3", tb.Len())
	}
	entries := tb.Entries()
	if len(entries) != 3 || entries[0].ID > entries[1].ID {
		t.Errorf("Entries not sorted: %v", entries)
	}
	if _, ok := tb.Lookup(Vertex{Type: "tcp", Offset: 34}); ok {
		t.Error("Lookup invented an ID")
	}
}

func TestVXLANParser(t *testing.T) {
	g := VXLANParser()
	if err := g.Validate(); err != nil {
		t.Fatalf("VXLANParser invalid: %v", err)
	}
	for _, v := range []Vertex{
		{Type: "vxlan", Offset: OffVXLAN},
		{Type: "ethernet", Offset: OffInnerEth},
		{Type: "ipv4", Offset: OffInnerIP},
		{Type: "tcp", Offset: OffInnerL4},
	} {
		if !g.HasVertex(v) {
			t.Errorf("vertex %s missing", v)
		}
	}
	// Inner and outer Ethernet are distinct vertices.
	if !g.HasVertex(Vertex{Type: "ethernet", Offset: 0}) {
		t.Error("outer ethernet missing")
	}
}

func TestClassifierParserCoversBothLayouts(t *testing.T) {
	g := ClassifierParser()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasVertex(Vertex{Type: "ipv4", Offset: OffIPv4Plain}) ||
		!g.HasVertex(Vertex{Type: "ipv4", Offset: OffIPv4SFC}) {
		t.Error("classifier parser missing one of the IPv4 layouts")
	}
}

func TestParserClone(t *testing.T) {
	g := BasicIPv4Parser()
	c := g.Clone()
	c.MustEdge(Transition{
		From:   Vertex{Type: "udp", Offset: OffL4Plain},
		Select: "udp.dst_port", Value: 4789,
		To: Vertex{Type: "vxlan", Offset: OffL4Plain + 8},
	})
	if g.HasVertex(Vertex{Type: "vxlan", Offset: OffL4Plain + 8}) {
		t.Error("Clone shares vertex set with original")
	}
	if len(g.Edges()) == len(c.Edges()) {
		t.Error("Clone shares edge slice with original")
	}
}

// mustPanic fails the test unless f panics with a message naming Clone.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "Clone") {
			t.Errorf("%s: recovered %v, want a panic that says to Clone first", what, r)
		}
	}()
	f()
}

// TestStdParsersSharedAndFrozen: every standard fragment is one graph
// per process; changing it panics, and its Clone is an ordinary,
// mutable graph.
func TestStdParsersSharedAndFrozen(t *testing.T) {
	orphan := Vertex{Type: "vxlan", Offset: 99}
	for name, get := range map[string]func() *ParserGraph{
		"basic": BasicIPv4Parser, "sfc": SFCIPv4Parser, "arp": ARPParser,
		"vxlan": VXLANParser, "classifier": ClassifierParser,
	} {
		g := get()
		if get() != g {
			t.Errorf("%s: two calls returned different graphs", name)
		}
		edges, states := len(g.Edges()), g.ParseStates()
		mustPanic(t, name+" AddVertex", func() { g.AddVertex(orphan) })
		mustPanic(t, name+" AddEdge", func() { _ = g.AddEdge(Transition{From: g.Start, Default: true, To: Accept()}) })
		mustPanic(t, name+" MustEdge", func() { g.MustEdge(Transition{From: orphan, Default: true, To: Accept()}) })
		if len(g.Edges()) != edges || g.ParseStates() != states || g.HasVertex(orphan) {
			t.Errorf("%s: a refused change altered the shared graph", name)
		}

		c := g.Clone()
		c.AddVertex(orphan)
		c.MustEdge(Transition{From: orphan, Default: true, To: Accept()})
		if !c.HasVertex(orphan) || g.HasVertex(orphan) || len(g.Edges()) != edges {
			t.Errorf("%s: the Clone is not an independent, mutable graph", name)
		}
		if EmitParser("n", c) == EmitParser("n", g) {
			t.Errorf("%s: the changed Clone emits the shared graph's text", name)
		}
	}
}

// TestEmitParserFrozenMatchesFresh: the text of a frozen graph, emitted
// once when it was frozen, is byte for byte what emitting an unfrozen
// copy of it gives, under any parser name.
func TestEmitParserFrozenMatchesFresh(t *testing.T) {
	for _, g := range []*ParserGraph{BasicIPv4Parser(), SFCIPv4Parser(), ARPParser(), VXLANParser(), ClassifierParser()} {
		for _, name := range []string{"fw", "1st-parser", ""} {
			if got, want := EmitParser(name, g), EmitParser(name, g.Clone()); got != want {
				t.Errorf("%s: frozen text\n%s\nfresh text\n%s", name, got, want)
			}
		}
	}
}
