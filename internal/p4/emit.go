package p4

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file emits P4-16-style source text from the IR — the concrete
// artifact §3.2 describes: "generate a single multi-pipeline P4
// program that can be compiled and loaded onto the physical
// pipelines". The emitted text is a faithful, human-reviewable
// rendering of the IR (headers, the merged parser, actions, tables and
// apply blocks); it is not fed to a vendor compiler here (none is
// available), but it makes the composition output inspectable and
// diffable exactly the way the paper's toolchain would.

// indent is the indentation unit of emitted source.
const indent = "    "

// emitter accumulates source text.
type emitter struct {
	sb    strings.Builder
	depth int
}

func (e *emitter) line(format string, args ...any) {
	for i := 0; i < e.depth; i++ {
		e.sb.WriteString(indent)
	}
	fmt.Fprintf(&e.sb, format, args...)
	e.sb.WriteByte('\n')
}

func (e *emitter) open(format string, args ...any) {
	e.line(format+" {", args...)
	e.depth++
}

func (e *emitter) close(suffix string) {
	e.depth--
	e.line("}%s", suffix)
}

// sanitize turns an IR identifier into a valid P4 identifier; one that
// already is one is returned as it is.
func sanitize(s string) string {
	if isIdent(s) {
		return s
	}
	var out strings.Builder
	out.Grow(len(s) + 1)
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			out.WriteByte(byte(r))
		case r >= '0' && r <= '9':
			if i == 0 {
				out.WriteByte('_')
			}
			out.WriteByte(byte(r))
		default:
			out.WriteByte('_')
		}
	}
	return out.String()
}

// isIdent reports whether s is non-empty, starts with a letter or '_'
// and continues with letters, digits or '_' — what sanitize keeps.
func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return false
	}
	return s != ""
}

// EmitHeaderType renders one header declaration.
func EmitHeaderType(h *HeaderType) string {
	e := &emitter{}
	e.open("header %s_t", sanitize(h.Name))
	for _, f := range h.Fields {
		e.line("bit<%d> %s;", f.Bits, sanitize(f.Name))
	}
	e.close("")
	return e.sb.String()
}

// parserStateName derives a state identifier from a vertex.
func parserStateName(v Vertex) string {
	if v.Type == AcceptType {
		return "accept"
	}
	return fmt.Sprintf("parse_%s_at_%d", sanitize(v.Type), v.Offset)
}

// EmitParser renders the parser graph as a P4-16 parser block with one
// state per (header type, offset) vertex. A frozen graph's states were
// emitted once, when it was frozen; only the declaration line naming
// the parser is rendered per call.
func EmitParser(name string, g *ParserGraph) string {
	body := g.body
	if !g.frozen {
		body = emitParserBody(g)
	}
	return "parser " + sanitize(name) + "(packet_in pkt, out all_headers_t hdr) {\n" + body
}

// emitParserBody renders everything of EmitParser's block below the
// declaration line, down to its closing brace.
func emitParserBody(g *ParserGraph) string {
	e := &emitter{depth: 1}
	x := g.index()
	var succ []Transition

	e.open("state start")
	e.line("transition %s;", parserStateName(g.Start))
	e.close("")

	for _, v := range g.Vertices() {
		if v.Type == AcceptType {
			continue
		}
		e.open("state %s", parserStateName(v))
		e.line("pkt.extract(hdr.%s_at_%d);", sanitize(v.Type), v.Offset)
		succ = succ[:0]
		for i := x.last[v]; i > 0; i = x.prev[i-1] {
			succ = append(succ, g.edges[i-1])
		}
		slices.Reverse(succ) // insertion order
		if len(succ) == 0 {
			e.line("transition accept;")
			e.close("")
			continue
		}
		// Stable order: valued transitions sorted, default last.
		sort.SliceStable(succ, func(i, j int) bool {
			if succ[i].Default != succ[j].Default {
				return !succ[i].Default
			}
			if succ[i].Select != succ[j].Select {
				return succ[i].Select < succ[j].Select
			}
			return succ[i].Value < succ[j].Value
		})
		var selField FieldRef
		hasValued := false
		for _, t := range succ {
			if !t.Default {
				selField = t.Select
				hasValued = true
				break
			}
		}
		if !hasValued {
			e.line("transition %s;", parserStateName(succ[0].To))
			e.close("")
			continue
		}
		e.open("transition select(hdr.%s)", sanitize(string(selField)))
		for _, t := range succ {
			if t.Default {
				e.line("default: %s;", parserStateName(t.To))
			} else {
				e.line("%#x: %s;", t.Value, parserStateName(t.To))
			}
		}
		e.close("")
		e.close("")
	}
	e.close("")
	return e.sb.String()
}

// emitAction renders one action declaration.
func emitAction(e *emitter, a *Action) {
	var params []string
	for _, p := range a.Params {
		params = append(params, fmt.Sprintf("bit<%d> %s", p.Bits, sanitize(p.Name)))
	}
	e.open("action %s(%s)", sanitize(a.Name), strings.Join(params, ", "))
	for _, op := range a.Ops {
		switch op.Kind {
		case OpSetField:
			src := "/*param*/"
			if len(a.Params) > 0 {
				src = sanitize(a.Params[0].Name)
			}
			e.line("hdr.%s = %s;", sanitize(string(op.Dst)), src)
		case OpCopyField:
			if len(op.Srcs) > 0 {
				e.line("hdr.%s = hdr.%s;", sanitize(string(op.Dst)), sanitize(string(op.Srcs[0])))
			}
		case OpAddToField:
			e.line("hdr.%s = hdr.%s + 1;", sanitize(string(op.Dst)), sanitize(string(op.Dst)))
		case OpAddHeader:
			e.line("hdr.%s.setValid();", sanitize(FieldRef(op.Dst).Header()))
		case OpRemoveHeader:
			e.line("hdr.%s.setInvalid();", sanitize(FieldRef(op.Dst).Header()))
		case OpHash:
			var srcs []string
			for _, s := range op.Srcs {
				srcs = append(srcs, "hdr."+sanitize(string(s)))
			}
			e.line("hdr.%s = hash({%s});", sanitize(string(op.Dst)), strings.Join(srcs, ", "))
		case OpCount:
			e.line("counter.count();")
		case OpNoop:
			e.line("/* no-op */")
		}
	}
	e.close("")
}

// emitTable renders one table declaration.
func emitTable(e *emitter, t *Table) {
	e.open("table %s", sanitize(t.Name))
	if len(t.Keys) > 0 {
		e.open("key =")
		for _, k := range t.Keys {
			e.line("hdr.%s : %s;", sanitize(string(k.Field)), k.Kind)
		}
		e.close("")
	}
	e.open("actions =")
	for _, a := range t.Actions {
		e.line("%s;", sanitize(a.Name))
	}
	e.close("")
	if t.DefaultAction != "" {
		e.line("const default_action = %s();", sanitize(t.DefaultAction))
	}
	if t.Size > 0 {
		e.line("size = %d;", t.Size)
	}
	e.close("")
}

// emitCond renders a gateway condition.
func emitCond(c Cond) string {
	switch c.Kind {
	case CondFieldEq:
		return fmt.Sprintf("hdr.%s == %d", sanitize(string(c.Field)), c.Value)
	case CondFieldNeq:
		return fmt.Sprintf("hdr.%s != %d", sanitize(string(c.Field)), c.Value)
	case CondValid:
		return fmt.Sprintf("hdr.%s.isValid()", sanitize(c.Header))
	default:
		return "true"
	}
}

// emitStmts renders an apply-body statement list.
func emitStmts(e *emitter, body []Stmt) {
	for _, s := range body {
		switch st := s.(type) {
		case ApplyStmt:
			e.line("%s.apply();", sanitize(st.Table))
		case IfStmt:
			e.open("if (%s)", emitCond(st.Cond))
			emitStmts(e, st.Then)
			if len(st.Else) > 0 {
				e.close(" else {")
				e.depth++
				emitStmts(e, st.Else)
			}
			e.close("")
		case CallStmt:
			e.line("%s.apply(hdr);", sanitize(st.Block))
		}
	}
}

// EmitControl renders a control block: actions, tables, apply body. A
// frozen block's text was emitted once, when it was frozen.
func EmitControl(cb *ControlBlock) string {
	if cb.frozen {
		return cb.text
	}
	return emitControl(cb)
}

func emitControl(cb *ControlBlock) string {
	e := &emitter{}
	e.open("control %s(inout all_headers_t hdr)", sanitize(cb.Name))
	// Deduplicate action declarations across tables by name.
	seen := make(map[string]bool)
	for _, t := range cb.Tables {
		for _, a := range t.Actions {
			key := sanitize(a.Name)
			if seen[key] {
				continue
			}
			seen[key] = true
			emitAction(e, a)
		}
	}
	for _, t := range cb.Tables {
		emitTable(e, t)
	}
	e.open("apply")
	emitStmts(e, cb.Body)
	e.close("")
	e.close("")
	return e.sb.String()
}

// EmitProgram renders a full program: header declarations for every
// standard header type, the merged parser, and every control block —
// the "single multi-pipeline P4 program" of §3.2.
func EmitProgram(p *Program) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "// Program %s — generated by Dejavu's composer.\n", p.Name)
	fmt.Fprintf(&sb, "// One control block per pipelet; the parser is the merged generic parser.\n\n")

	// Headers, in deterministic order.
	types := StandardHeaderTypes()
	names := make([]string, 0, len(types))
	for n := range types {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sb.WriteString(EmitHeaderType(types[n]))
		sb.WriteByte('\n')
	}

	sb.WriteString(EmitParser(p.Name+"_parser", p.Parser))
	sb.WriteByte('\n')
	for _, cb := range p.Blocks {
		sb.WriteString(EmitControl(cb))
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}
