package lint

import (
	"fmt"

	"dejavu/internal/p4"
)

// parserMergeRule (DV004) reports on the §3 generic-parser merge. The
// merge itself is p4.MergeParsers, run once by the build pipeline's
// parser-merge stage; ParserFindings renders what it found. Two NFs
// whose fragments take the same (header type, offset) vertex to
// different successors on the same select value disagree about the
// packet format, and the merged parser cannot represent both. Vertices
// of the merged parser unreachable from the shared Ethernet start
// vertex are parser states that consume TCAM but can never fire.
type parserMergeRule struct{}

func (parserMergeRule) ID() string    { return RuleParserMerge }
func (parserMergeRule) Title() string { return "generic-parser merge ambiguity" }

// Check reports the target's generic parser's unreachable vertices.
func (parserMergeRule) Check(t *Target, r *Report) {
	for _, f := range ParserFindings(nil, t.Parser, nil) {
		r.Add(f)
	}
}

// ParserFindings renders one generic-parser merge as DV004 findings:
// an error for every conflict it reported (nil: none), naming each
// fragment by the NF at its index in nfs, then a warning for every
// vertex of merged that no packet can reach from its start.
func ParserFindings(nfs []string, merged *p4.ParserGraph, conflicts *p4.MergeError) []Finding {
	var out []Finding
	if conflicts != nil {
		for _, c := range conflicts.Conflicts {
			f := Finding{
				Rule:     RuleParserMerge,
				Severity: SevError,
				Where:    "generic parser",
				Message:  fmt.Sprintf("parser merge failed: %v", c.Err),
				Fix:      "root every NF parser at the shared Ethernet@0 vertex and let every transition advance the byte offset toward accept",
			}
			if c.Fragment >= 0 {
				f.Where = nfs[c.Fragment]
			}
			if c.Owner >= 0 {
				detail := "default transition"
				if !c.Edge.Default {
					detail = fmt.Sprintf("select %s=%#x", c.Edge.Select, c.Edge.Value)
				}
				f.Message = fmt.Sprintf("parser merge ambiguity at %s: %s leads to %s here but to %s in NF %q",
					c.Edge.From, detail, c.Edge.To, c.OwnerTo, nfs[c.Owner])
				f.Fix = "align the NFs' parser fragments on one successor for the vertex"
			}
			out = append(out, f)
		}
	}
	if merged == nil {
		return out
	}
	reach := merged.Reachable()
	for _, v := range merged.Vertices() {
		if v.Type == p4.AcceptType || reach[v] {
			continue
		}
		out = append(out, Finding{
			Rule:     RuleParserMerge,
			Severity: SevWarn,
			Where:    v.String(),
			Message:  "parser vertex is unreachable from the start vertex; it consumes parser TCAM but can never fire",
			Fix:      "remove the orphan vertex or add the transition that reaches it",
		})
	}
	return out
}
