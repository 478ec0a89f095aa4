package packet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// layoutFuncs are the fixed-layout functions of parsed.go. Their speed
// rests on every header kernel they call being inlined: a kernel call
// left standing costs a call per header, the cost the layouts remove.
var layoutFuncs = []string{"getTCPStack", "getUDPStack", "putTCPStack", "putUDPStack", "putVXLAN"}

// TestLayoutKernelsInline compiles the package with -gcflags=-m and
// fails unless every method call in the layout functions is reported
// inlined. A kernel edited past the inliner's budget (80; -gcflags=-m=2
// prints each cost) passes every other test while the layouts lose
// their gain; this is where it shows.
func TestLayoutKernelsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := exec.LookPath(goTool); err != nil {
		t.Skipf("no go command: %v", err)
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "parsed.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls []string // "parsed.go:line:col: inlining call to", one per kernel call
	found := map[string]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !slices.Contains(layoutFuncs, fd.Name.Name) {
			continue
		}
		found[fd.Name.Name] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
					pos := fset.Position(c.Lparen)
					calls = append(calls, fmt.Sprintf("parsed.go:%d:%d: inlining call to %s", pos.Line, pos.Column, sel.Sel.Name))
				}
			}
			return true
		})
	}
	if len(found) != len(layoutFuncs) {
		t.Fatalf("parsed.go defines %d of the layout functions %v", len(found), layoutFuncs)
	}
	if len(calls) == 0 {
		t.Fatal("no kernel calls found in the layout functions")
	}

	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlined := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		// "./parsed.go:197:11: inlining call to (*Ethernet).get"
		i := strings.Index(line, "parsed.go:")
		j := strings.Index(line, ": inlining call to ")
		if i < 0 || j < i {
			continue
		}
		name := line[j+len(": inlining call to "):]
		if k := strings.LastIndexByte(name, '.'); k >= 0 {
			name = name[k+1:]
		}
		inlined[line[i:j]+": inlining call to "+name] = true
	}
	for _, c := range calls {
		if !inlined[c] {
			t.Errorf("%s: not reported by the compiler: the kernel is not inlined", c)
		}
	}
	if !t.Failed() {
		t.Logf("%d kernel calls in %d layout functions, all inlined", len(calls), len(layoutFuncs))
	}
}
