package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The detrand analyzer keeps the chaos/fault/traffic/placement layers
// deterministic and reproducible: inside internal/fault,
// internal/traffic, internal/fabricplace (the cost-based placer's
// scoring must replay identically for the recorded dvexp seeds), any
// *chaos* or *soak* file, or any *Chaos* or *Soak* function, code
// must not CALL time.Now/Since/Sleep/... or the global math/rand
// source directly — clocks and randomness flow in through the
// injectable seams those packages already define (fault.Driver.Sleep,
// pktgen's seeded *rand.Rand).
//
// Two things stay legal: referencing a time function as a VALUE
// (wiring `var clock = time.Now` as a seam default is the pattern,
// calling it inline is the bug), and seeded construction via
// rand.New(rand.NewSource(seed)) — methods on a *rand.Rand instance
// are always fine.

// Detrand returns the detrand analyzer.
func Detrand() *Analyzer {
	return &Analyzer{
		Name: "detrand",
		Doc:  "no naked time.Now / global math/rand in fault, traffic, fabricplace, or chaos code — inject clocks and seeds through seams",
		Run:  runDetrand,
	}
}

// detrandClockDeny are the time package functions that read the wall
// clock or real timers when CALLED.
var detrandClockDeny = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// detrandRandAllow are the math/rand package-level functions that
// construct seeded sources rather than draw from the global one.
var detrandRandAllow = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDetrand(pass *Pass) error {
	pkgInScope := detrandPackageInScope(pass.Pkg.Path())
	for _, file := range pass.Files {
		fileInScope := pkgInScope || detrandFileInScope(pass, file)
		inspectStack([]*ast.File{file}, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !fileInScope && !inChaosFunc(stack) {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call.Fun)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			isMethod := sig != nil && sig.Recv() != nil
			switch fn.Pkg().Path() {
			case "time":
				if !isMethod && detrandClockDeny[fn.Name()] {
					pass.Reportf(call.Pos(),
						"naked time.%s in deterministic code: inject the clock through a seam", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !isMethod && !detrandRandAllow[fn.Name()] {
					pass.Reportf(call.Pos(),
						"global math/rand source (rand.%s) in deterministic code: draw from a seeded *rand.Rand", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// detrandPackageInScope matches the deterministic packages: any path
// whose last element is fault, traffic or fabricplace (the placement
// engine's scoring must be reproducible for the recorded dvexp seeds),
// or that mentions chaos.
func detrandPackageInScope(path string) bool {
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	return last == "fault" || last == "traffic" || last == "fabricplace" || strings.Contains(path, "chaos")
}

// detrandFileInScope matches *chaos* and *soak* files in any package.
func detrandFileInScope(pass *Pass, file *ast.File) bool {
	name := pass.Fset.Position(file.Pos()).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return strings.Contains(strings.ToLower(name), "chaos") || strings.Contains(strings.ToLower(name), "soak")
}

// inChaosFunc reports whether the stack is inside a *Chaos*/*Soak* function.
func inChaosFunc(stack []ast.Node) bool {
	fd := enclosingDecl(stack)
	return fd != nil && (strings.Contains(fd.Name.Name, "Chaos") || strings.Contains(fd.Name.Name, "Soak"))
}
