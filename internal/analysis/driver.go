package analysis

import "sort"

// Analyzers returns the full Dejavu suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Hotpath(), Snapshot(), Poolsafe(), Detrand()}
}

// Result is one run's output: sorted diagnostics plus the number of
// findings suppressed by //dv:allow waivers, and the hotpath facts (for
// call-graph queries like CoverageFrom).
type Result struct {
	Diagnostics []Diagnostic
	Waived      int
	Facts       Facts
}

// RunPackages drives the analyzers over a loaded program in dependency
// order, sharing one fact store so bottom-up summaries flow from
// callees to callers.
func RunPackages(prog *Program, analyzers []*Analyzer) (Result, error) {
	res := Result{Facts: make(Facts)}
	for _, pkg := range prog.Packages {
		allows := buildAllowIndex(prog.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				InModule:  prog.InModule,
				Facts:     res.Facts,
				allows:    allows,
			}
			if err := a.Run(pass); err != nil {
				return res, err
			}
			res.Diagnostics = append(res.Diagnostics, pass.diags...)
			res.Waived += pass.waived
		}
	}
	SortDiagnostics(res.Diagnostics)
	return res, nil
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// CoverageFrom walks the hotpath call-graph facts from one function,
// returning every module function statically reachable from it (the
// root included), sorted by key. Waived call edges are followed: a
// waiver accepts effects at a site, it does not remove the callee from
// the checked surface.
func CoverageFrom(facts Facts, root string) []string {
	seen := map[string]bool{root: true}
	work := []string{root}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range facts[key].Calls {
			if !seen[callee] {
				seen[callee] = true
				work = append(work, callee)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HotFuncs returns the ObjKeys of every //dv:hotpath-annotated
// function recorded in the facts, sorted.
func HotFuncs(facts Facts) []string {
	var out []string
	for key, fact := range facts {
		if fact.Hot {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
