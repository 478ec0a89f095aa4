// Package analysis is Dejavu's code-level static-analysis layer: a
// small, dependency-free mirror of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic, cross-package facts) plus
// the four project analyzers that mechanically enforce the datapath
// contract the performance PRs established:
//
//   - hotpath:  //dv:hotpath functions (and everything they statically
//     call inside the module) must not allocate, lock, write maps,
//     read the wall clock, or touch channels.
//   - snapshot: types published through atomic.Pointer[T] may only be
//     mutated by //dv:snapshotwriter clone+swap paths.
//   - poolsafe: every sync.Pool.Get has a Put (or transfers ownership
//     by returning the object), and pooled objects must not escape
//     into retained structures.
//   - detrand:  no naked time.Now / global math/rand in fault,
//     traffic, or chaos code — clocks and seeds flow through seams.
//
// The x/tools module is deliberately not imported: the toolchain is
// the only dependency, so the one driver (Load, then RunPackages, as
// cmd/dvvet and the tests run it) works in a hermetic build. See
// docs/STATIC_ANALYSIS.md for the annotation and waiver contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. Run inspects a single package through
// its Pass; facts exported for the package's functions are visible to
// later passes over dependent packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, located by a resolved file position so it
// prints and encodes without the run's token.FileSet.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// String renders the diagnostic the way vet tools print them.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Facts holds the hotpath analyzer's per-function summaries, keyed by
// ObjKey. RunPackages visits packages dependencies first, so a pass
// finds the summary of every module function it can call.
type Facts map[string]hpFact

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// InModule reports whether an import path belongs to the module
	// under analysis (the boundary for call-graph propagation).
	InModule func(path string) bool

	// Facts is shared across the packages of one run.
	Facts Facts

	allows allowIndex
	diags  []Diagnostic
	waived int
}

// Reportf records a finding at pos unless a //dv:allow waiver covers
// the line for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, position) {
		p.waived++
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a finding at pos, which may lie in another package
// (an effect that travelled through a fact). Waivers were applied where
// the effect was collected, so none are re-checked here. Such findings
// carry file, line and column only (Offset 0), which keeps dvvet -json
// output for them stable.
func (p *Pass) ReportAt(pos token.Pos, msg string) {
	position := p.Fset.Position(pos)
	position.Offset = 0
	p.diags = append(p.diags, Diagnostic{Analyzer: p.Analyzer.Name, Pos: position, Message: msg})
}

// Waived reports whether a //dv:allow waiver for this analyzer covers
// the line of pos, counting it as used when it does.
func (p *Pass) Waived(pos token.Pos) bool {
	if p.allows.allowed(p.Analyzer.Name, p.Fset.Position(pos)) {
		p.waived++
		return true
	}
	return false
}

// ObjKey returns the stable cross-package key of a function or method:
// "pkg/path.Func" or "pkg/path.(Recv).Method". Keys survive the trip
// through export data, so source-checked and gc-imported views of the
// same function agree.
func ObjKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name() // builtins (error.Error etc.)
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg.Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		// Interface method sets and other receivers: fall back to the
		// receiver type's string form.
		return pkg.Path() + ".(" + types.TypeString(t, nil) + ")." + fn.Name()
	}
	return pkg.Path() + "." + fn.Name()
}
