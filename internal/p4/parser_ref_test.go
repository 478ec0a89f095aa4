package p4

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The reference parser kernels below scan every edge for every vertex,
// as the graph's methods once did. They are the oracle the indexed
// kernels are held to.

func refSuccessors(g *ParserGraph, v Vertex) []Transition {
	var out []Transition
	for _, e := range g.edges {
		if e.From == v {
			out = append(out, e)
		}
	}
	return out
}

func refReachable(g *ParserGraph) map[Vertex]bool {
	seen := map[Vertex]bool{g.Start: true}
	stack := []Vertex{g.Start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range refSuccessors(g, v) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

func refReachesAccept(g *ParserGraph, v Vertex, visiting map[Vertex]bool) bool {
	if v.Type == AcceptType {
		return true
	}
	if visiting[v] {
		return false
	}
	visiting[v] = true
	for _, e := range refSuccessors(g, v) {
		if refReachesAccept(g, e.To, visiting) {
			return true
		}
	}
	return false
}

// refAddEdge checks t against every edge of g, as AddEdge once did.
func refAddEdge(g *ParserGraph, t Transition) error {
	if t.To.Type != AcceptType && t.To.Offset <= t.From.Offset {
		return fmt.Errorf("p4: parser edge %s -> %s does not advance offset", t.From, t.To)
	}
	for _, e := range g.edges {
		if e.From != t.From {
			continue
		}
		if e.Default && t.Default && e.To != t.To {
			return fmt.Errorf("p4: conflicting default transitions from %s: %s vs %s", t.From, e.To, t.To)
		}
		if !e.Default && !t.Default && e.Select == t.Select && e.Value == t.Value && e.To != t.To {
			return fmt.Errorf("p4: conflicting transitions from %s on %s=%#x: %s vs %s",
				t.From, t.Select, t.Value, e.To, t.To)
		}
		if e == t {
			return nil
		}
	}
	g.AddVertex(t.From)
	g.AddVertex(t.To)
	g.edges = append(g.edges, t)
	return nil
}

// refValidate names the first dead end in Vertices order.
func refValidate(g *ParserGraph) error {
	if !g.vertices[g.Start] {
		return fmt.Errorf("p4: parser start vertex %s not in graph", g.Start)
	}
	reach := refReachable(g)
	for _, v := range g.Vertices() {
		if !reach[v] || v.Type == AcceptType {
			continue
		}
		if !refReachesAccept(g, v, map[Vertex]bool{}) {
			return fmt.Errorf("p4: parser vertex %s cannot reach accept", v)
		}
	}
	return nil
}

// refMergeParsers merges every graph edge by edge through refAddEdge,
// repeated fragments included.
func refMergeParsers(table *GlobalIDTable, graphs ...*ParserGraph) (*ParserGraph, error) {
	start := graphs[0].Start
	merged := NewParserGraph(start)
	type owner struct {
		to       Vertex
		fragment int
	}
	owners := make(map[Transition]owner)
	var conflicts []MergeConflict
	for i, g := range graphs {
		if g.Start != start {
			conflicts = append(conflicts, MergeConflict{Fragment: i, Owner: -1,
				Err: fmt.Errorf("parser start vertices differ: %s vs %s", start, g.Start)})
			continue
		}
		for _, v := range g.Vertices() {
			table.ID(v)
			merged.AddVertex(v)
		}
		for _, e := range g.Edges() {
			d := e
			d.To = Vertex{}
			if err := refAddEdge(merged, e); err != nil {
				c := MergeConflict{Fragment: i, Edge: e, Owner: -1, Err: err}
				if o, ok := owners[d]; ok && o.to != e.To {
					c.Owner, c.OwnerTo = o.fragment, o.to
				}
				conflicts = append(conflicts, c)
				continue
			}
			owners[d] = owner{to: e.To, fragment: i}
		}
	}
	if len(conflicts) == 0 {
		if err := refValidate(merged); err != nil {
			conflicts = append(conflicts, MergeConflict{Fragment: -1, Owner: -1, Err: err})
		}
	}
	if len(conflicts) > 0 {
		return merged, &MergeError{Conflicts: conflicts}
	}
	return merged, nil
}

// randomParser builds a parser DAG rooted at Ethernet@0 from random
// transitions over a few header types and offsets: some vertices end
// without reaching accept, some are orphans, and some transitions are
// refused as conflicts. Every AddEdge must answer as refAddEdge does.
func randomParser(t *testing.T, rng *rand.Rand) *ParserGraph {
	types := []string{"ethernet", "sfc", "ipv4", "arp", "udp", "tcp"}
	offsets := []int{0, 14, 34, 54, 62}
	g, ref := NewParserGraph(EthernetStart()), NewParserGraph(EthernetStart())
	vs := []Vertex{g.Start}
	for i, n := 0, 2+rng.Intn(12); i < n; i++ {
		from := vs[rng.Intn(len(vs))]
		to := Accept()
		if rng.Intn(4) > 0 {
			to = Vertex{Type: types[rng.Intn(len(types))], Offset: offsets[rng.Intn(len(offsets))]}
		}
		tr := Transition{From: from, To: to, Default: rng.Intn(3) == 0}
		if !tr.Default {
			tr.Select, tr.Value = FieldRef(from.Type+".next"), uint64(rng.Intn(3))
		}
		err := g.AddEdge(tr)
		if want := refAddEdge(ref, tr); errText(err) != errText(want) {
			t.Fatalf("AddEdge(%+v) = %v, reference %v", tr, err, want)
		}
		if err == nil && to.Type != AcceptType {
			vs = append(vs, to)
		}
	}
	if !reflect.DeepEqual(g.Edges(), ref.Edges()) || !reflect.DeepEqual(g.Vertices(), ref.Vertices()) {
		t.Fatalf("AddEdge built %v, the reference %v", g.Edges(), ref.Edges())
	}
	if rng.Intn(4) == 0 {
		g.AddVertex(Vertex{Type: "vxlan", Offset: 70})
	}
	return g
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func stdFragments() []*ParserGraph {
	return []*ParserGraph{BasicIPv4Parser(), SFCIPv4Parser(), ARPParser(), VXLANParser(), ClassifierParser()}
}

// TestParserKernelsMatchReference: over every standard fragment and
// 2 000 random DAGs, AddEdge, Reachable and Validate agree with the
// reference kernels, and merging random fragment lists (repeats included) agrees
// with merging every fragment edge by edge — the merged graph, the
// global IDs and every conflict.
func TestParserKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := stdFragments()
	for i := 0; i < 2000; i++ {
		graphs = append(graphs, randomParser(t, rng))
	}
	dead := 0
	for i, g := range graphs {
		if got, want := g.Reachable(), refReachable(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: Reachable = %v, reference %v", i, got, want)
		}
		got, want := g.Validate(), refValidate(g)
		if errText(got) != errText(want) {
			t.Fatalf("graph %d: Validate = %v, reference %v", i, got, want)
		}
		if got != nil {
			dead++
		}
	}
	if dead == 0 || dead == len(graphs) {
		t.Fatalf("%d of %d graphs fail Validate; the generator does not cover both outcomes", dead, len(graphs))
	}

	conflicted := 0
	for i := 0; i < 1000; i++ {
		frags := make([]*ParserGraph, 1+rng.Intn(6))
		for j := range frags {
			frags[j] = graphs[rng.Intn(len(graphs))]
			if j > 0 && rng.Intn(3) == 0 {
				frags[j] = frags[rng.Intn(j)] // the same fragment again
			}
		}
		gotT, wantT := NewGlobalIDTable(), NewGlobalIDTable()
		got, gotErr := MergeParsers(gotT, frags...)
		want, wantErr := refMergeParsers(wantT, frags...)
		if !reflect.DeepEqual(got.Edges(), want.Edges()) || !reflect.DeepEqual(got.Vertices(), want.Vertices()) ||
			!reflect.DeepEqual(gotT.Entries(), wantT.Entries()) {
			t.Fatalf("merge %d: merged graph or IDs differ from the reference", i)
		}
		var gc, wc *MergeError
		errors.As(gotErr, &gc)
		errors.As(wantErr, &wc)
		if (gc == nil) != (wc == nil) {
			t.Fatalf("merge %d: error %v, reference %v", i, gotErr, wantErr)
		}
		if gc == nil {
			continue
		}
		conflicted++
		if len(gc.Conflicts) != len(wc.Conflicts) {
			t.Fatalf("merge %d: %d conflicts, reference %d", i, len(gc.Conflicts), len(wc.Conflicts))
		}
		for k, c := range gc.Conflicts {
			w := wc.Conflicts[k]
			if c.Fragment != w.Fragment || c.Edge != w.Edge || c.Owner != w.Owner || c.OwnerTo != w.OwnerTo || c.Err.Error() != w.Err.Error() {
				t.Fatalf("merge %d conflict %d: %+v, reference %+v", i, k, c, w)
			}
		}
	}
	if conflicted == 0 {
		t.Fatal("no random merge conflicted; the generator does not reach the conflict paths")
	}
}

// TestValidateNamesFirstDeadEnd: of two vertices that cannot reach
// accept, Validate names the first in Vertices order, every time.
func TestValidateNamesFirstDeadEnd(t *testing.T) {
	const want = "p4: parser vertex arp@14 cannot reach accept"
	for i := 0; i < 100; i++ {
		if got := errText(twoDeadEnds().Validate()); got != want {
			t.Fatalf("run %d: Validate = %q, want %q", i, got, want)
		}
	}
}

// twoDeadEnds is Ethernet selecting ipv4@14 and arp@14, neither of
// which goes on to accept.
func twoDeadEnds() *ParserGraph {
	g := NewParserGraph(EthernetStart())
	g.MustEdge(Transition{From: g.Start, Select: "ethernet.ether_type", Value: selEtherIPv4, To: Vertex{Type: "ipv4", Offset: OffIPv4Plain}})
	g.MustEdge(Transition{From: g.Start, Select: "ethernet.ether_type", Value: selEtherARP, To: Vertex{Type: "arp", Offset: OffIPv4Plain}})
	g.MustEdge(Transition{From: g.Start, Default: true, To: Accept()})
	return g
}
