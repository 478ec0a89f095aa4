package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The hotpath analyzer enforces the allocation/locking contract of the
// packet path: a function annotated //dv:hotpath — and every module
// function it statically calls — must not allocate (escaping composite
// literals, make, new, append growth, fmt/strings/strconv helpers,
// string concatenation), acquire sync.Mutex/RWMutex, write maps, read
// the wall clock, start goroutines, use channels, or call a method that
// copies a receiver larger than 64 bytes on amd64.
//
// Effects are summarized per function into facts and propagated
// bottom-up along static call edges within the module, so a violation
// three calls deep under asic.run is reported at the line that
// allocates, with the call chain in the message. A call through a
// module interface (nf.NF.Execute in a composed pipelet program) is
// followed to every implementation declared in the interface's own
// package, so an NF is on the hot path because the pipelet program can
// dispatch to it, not because someone remembered to annotate it. Calls
// through func values (the installed StageFunc programs) and through
// interfaces implemented elsewhere (asic.FaultHook) are a checked
// boundary: they are not followed.
//
// Waivers: `//dv:allow hotpath: reason` on an effect line suppresses
// the effect; on a call line it accepts the callee's whole transitive
// summary at that call site (the edge still counts for annotation-
// coverage accounting).

// maxEffectsPerFunc caps one function's transitive summary so a
// pathological fan-out cannot balloon the facts.
const maxEffectsPerFunc = 40

// hpEffect is one hot-path violation, positioned at its source line.
type hpEffect struct {
	Pos token.Pos
	Msg string
}

// hpFact is the per-function summary shared across packages: whether
// the function is annotated hot, its transitive effects, and its
// module-internal static callees (waived edges included — coverage
// accounting follows them even though effect propagation does not).
type hpFact struct {
	Hot     bool
	Effects []hpEffect
	Calls   []string
}

// hpCall is one static call edge out of a function.
type hpCall struct {
	key    string // callee ObjKey
	name   string // display name for via-chains
	hot    bool   // callee is itself annotated (stops inheritance)
	waived bool   // //dv:allow hotpath on the call line
}

// hpFunc is the per-function working state within one package.
type hpFunc struct {
	obj     *types.Func
	hot     bool
	effects []hpEffect
	calls   []hpCall

	summarized bool
	visiting   bool
	summary    []hpEffect
}

// Hotpath returns the hotpath analyzer.
func Hotpath() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "//dv:hotpath functions and their static callees must not allocate, lock, write maps, read the clock, or use channels",
		Run:  runHotpath,
	}
}

func runHotpath(pass *Pass) error {
	fns := make(map[string]*hpFunc)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn := &hpFunc{obj: obj, hot: hasDirective(fd.Doc, DirHotpath)}
			collectHotpath(pass, fd.Body, fn)
			fns[ObjKey(obj)] = fn
		}
	}

	// Bottom-up summaries: local callees resolve recursively, imported
	// ones through facts (dependencies were analyzed first).
	var summarize func(key string) []hpEffect
	summarize = func(key string) []hpEffect {
		fn := fns[key]
		if fn == nil {
			return pass.Facts[key].Effects
		}
		if fn.summarized {
			return fn.summary
		}
		if fn.visiting { // recursion cycle: effects surface on the first pass
			return nil
		}
		fn.visiting = true
		out := append([]hpEffect(nil), fn.effects...)
		for _, call := range fn.calls {
			if call.waived || len(out) >= maxEffectsPerFunc {
				continue
			}
			if call.hot || pass.Facts[call.key].Hot {
				continue // hot callees report their own effects
			}
			for _, e := range summarize(call.key) {
				if len(out) >= maxEffectsPerFunc {
					break
				}
				out = append(out, hpEffect{Pos: e.Pos, Msg: e.Msg + " (via " + call.name + ")"})
			}
		}
		fn.visiting = false
		fn.summarized = true
		fn.summary = out
		return out
	}

	for key, fn := range fns {
		summary := summarize(key)
		calls := make([]string, 0, len(fn.calls))
		for _, c := range fn.calls {
			calls = append(calls, c.key)
		}
		pass.Facts[key] = hpFact{Hot: fn.hot, Effects: summary, Calls: calls}
	}

	// Report: each hot function surfaces its transitive summary, once
	// per (position, message) so two hot callers of one helper do not
	// double-report the same line.
	seen := make(map[hpEffect]bool)
	for _, fn := range fns {
		if !fn.hot {
			continue
		}
		for _, e := range fn.summary {
			if seen[e] {
				continue
			}
			seen[e] = true
			pass.ReportAt(e.Pos, "hot path: "+e.Msg)
		}
	}
	return nil
}

// collectHotpath walks one function body (excluding nested function
// literals, which run on their own schedule) recording direct effects
// and module-internal call edges.
func collectHotpath(pass *Pass, body *ast.BlockStmt, fn *hpFunc) {
	addEffect := func(pos token.Pos, msg string) {
		if pass.Waived(pos) {
			return
		}
		fn.effects = append(fn.effects, hpEffect{Pos: pos, Msg: msg})
	}
	info := pass.TypesInfo

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures are not part of this function's schedule

		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				if msg := convEffect(info, n); msg != "" {
					addEffect(n.Pos(), msg)
				}
				return true
			}
			addCall := func(callee *types.Func) {
				fn.calls = append(fn.calls, hpCall{
					key:    ObjKey(callee),
					name:   displayName(callee),
					hot:    localHot(pass, callee),
					waived: pass.allows.allowed("hotpath", pass.Fset.Position(n.Pos())),
				})
			}
			callee := calleeFunc(info, n.Fun)
			if msg := receiverCopyEffect(callee); msg != "" {
				addEffect(n.Pos(), msg)
			}
			if callee == nil {
				if b := builtinName(info, n.Fun); b != "" {
					if msg := builtinEffect(info, n, b); msg != "" {
						addEffect(n.Pos(), msg)
					}
				}
				for _, impl := range interfaceImpls(pass, n.Fun) {
					addCall(impl)
				}
				return true // otherwise a dynamic call: checked boundary, not followed
			}
			if pkg := callee.Pkg(); pkg != nil && pass.InModule(pkg.Path()) {
				addCall(callee)
				return true
			}
			if msg := denyEffect(callee); msg != "" {
				addEffect(n.Pos(), msg)
			}

		case *ast.CompositeLit:
			if msg := compositeEffect(info, n); msg != "" {
				addEffect(n.Pos(), msg)
			}

		case *ast.UnaryExpr:
			switch n.Op {
			case token.AND:
				if _, ok := n.X.(*ast.CompositeLit); ok {
					addEffect(n.Pos(), "heap allocation: address of composite literal")
				}
			case token.ARROW:
				addEffect(n.Pos(), "channel receive")
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
					addEffect(n.Pos(), "string concatenation allocates")
				}
			}

		case *ast.SendStmt:
			addEffect(n.Pos(), "channel send")

		case *ast.SelectStmt:
			addEffect(n.Pos(), "select (channel operation)")

		case *ast.GoStmt:
			addEffect(n.Pos(), "starts a goroutine")

		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					addEffect(n.Pos(), "ranges over a channel")
				}
			}

		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if pos, ok := mapWrite(info, lhs); ok {
					addEffect(pos, "writes a map")
				}
			}

		case *ast.IncDecStmt:
			if pos, ok := mapWrite(info, n.X); ok {
				addEffect(pos, "writes a map")
			}
		}
		return true
	})
}

// calleeFunc resolves a call's static callee, or nil for dynamic calls
// (func values, interface methods).
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls are dynamic.
				if isInterfaceRecv(fn) {
					return nil
				}
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}

// interfaceImpls resolves a call through a named module interface to
// the method of every concrete type, declared in the interface's own
// package, that implements it. Any other expression yields nil.
func interfaceImpls(pass *Pass, fun ast.Expr) []*types.Func {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return nil
	}
	method, ok := s.Obj().(*types.Func)
	if !ok || !isInterfaceRecv(method) {
		return nil
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !pass.InModule(named.Obj().Pkg().Path()) {
		return nil
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() { // sorted: edges come out in a stable order
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		if !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method.Name())
		if impl, ok := obj.(*types.Func); ok {
			out = append(out, impl)
		}
	}
	return out
}

// maxValueReceiver is the largest receiver, in bytes on amd64, a hot
// call may copy: past it a value-receiver call is a runtime.duffcopy
// per call (asic.Profile's 104 bytes, four times per pass).
const maxValueReceiver = 64

var amd64Sizes = types.SizesFor("gc", "amd64")

// receiverCopyEffect flags a call to a method that takes a receiver
// larger than maxValueReceiver by value; nil fn (a dynamic call) passes.
func receiverCopyEffect(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if _, ptr := recv.(*types.Pointer); ptr || types.IsInterface(recv) {
		return ""
	}
	if size := amd64Sizes.Sizeof(recv); size > maxValueReceiver {
		return fmt.Sprintf("copies a %d-byte receiver (value method %s.%s)", size, types.TypeString(recv, types.RelativeTo(fn.Pkg())), fn.Name())
	}
	return ""
}

// isInterfaceRecv reports whether fn is declared on an interface.
func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// builtinName returns the name of a builtin being called, or "".
func builtinName(info *types.Info, fun ast.Expr) string {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// builtinEffect classifies an effectful builtin call.
func builtinEffect(info *types.Info, call *ast.CallExpr, name string) string {
	switch name {
	case "make":
		tv, ok := info.Types[call]
		if !ok {
			return "allocates (make)"
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			return "allocates a map (make)"
		case *types.Chan:
			return "allocates a channel (make)"
		default:
			return "allocates a slice (make)"
		}
	case "new":
		return "heap allocation (new)"
	case "append":
		return "append may grow the backing array"
	case "delete":
		return "writes a map (delete)"
	case "close":
		return "closes a channel"
	}
	return ""
}

// convEffect flags string<->[]byte/[]rune conversions, which copy.
func convEffect(info *types.Info, call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	dst, ok := info.Types[call]
	if !ok {
		return ""
	}
	src, ok := info.Types[call.Args[0]]
	if !ok {
		return ""
	}
	dstStr, srcStr := isString(dst.Type), isString(src.Type)
	_, dstSlice := dst.Type.Underlying().(*types.Slice)
	_, srcSlice := src.Type.Underlying().(*types.Slice)
	if (dstStr && srcSlice) || (dstSlice && srcStr) {
		return "string/slice conversion copies"
	}
	return ""
}

// compositeEffect flags composite literals whose backing store is
// heap-allocated regardless of escape: maps and slices. Struct and
// array values are only flagged when their address is taken (see the
// UnaryExpr case).
func compositeEffect(info *types.Info, lit *ast.CompositeLit) string {
	tv, ok := info.Types[lit]
	if !ok {
		return ""
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		return "map literal allocates"
	case *types.Slice:
		return "slice literal allocates"
	}
	return ""
}

// mapWrite reports whether lhs is an index into a map.
func mapWrite(info *types.Info, lhs ast.Expr) (token.Pos, bool) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return token.NoPos, false
	}
	tv, ok := info.Types[idx.X]
	if !ok {
		return token.NoPos, false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		return lhs.Pos(), true
	}
	return token.NoPos, false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// displayName is the short human name used in via-chains.
func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return "(*" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// localHot reports whether a callee declared in the package under
// analysis carries //dv:hotpath. Cross-package callees answer through
// their facts instead.
func localHot(pass *Pass, fn *types.Func) bool {
	if fn.Pkg() != pass.Pkg {
		return false
	}
	decl := declOf(pass, fn)
	return decl != nil && hasDirective(decl.Doc, DirHotpath)
}

// declOf finds the FuncDecl of a package-local function.
func declOf(pass *Pass, fn *types.Func) *ast.FuncDecl {
	for _, file := range pass.Files {
		if file.Pos() <= fn.Pos() && fn.Pos() < file.End() {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Pos() == fn.Pos() {
					return fd
				}
			}
		}
	}
	return nil
}

// hotpathDeny lists non-module functions whose mere call is a hot-path
// effect. fmt is denied wholesale (every entry point formats and
// allocates); the rest are the specific stdlib helpers the datapath
// has historically been tempted by.
var hotpathDeny = map[string]string{
	"errors.New":  "errors.New allocates",
	"errors.Join": "errors.Join allocates",

	"strings.Split":      "strings.Split allocates",
	"strings.SplitN":     "strings.SplitN allocates",
	"strings.SplitAfter": "strings.SplitAfter allocates",
	"strings.Fields":     "strings.Fields allocates",
	"strings.Join":       "strings.Join allocates",
	"strings.Repeat":     "strings.Repeat allocates",
	"strings.Replace":    "strings.Replace allocates",
	"strings.ReplaceAll": "strings.ReplaceAll allocates",
	"strings.ToUpper":    "strings.ToUpper allocates",
	"strings.ToLower":    "strings.ToLower allocates",
	"strings.Map":        "strings.Map allocates",
	"strings.Clone":      "strings.Clone allocates",

	"strings.(Builder).Write":       "strings.Builder grows",
	"strings.(Builder).WriteString": "strings.Builder grows",
	"strings.(Builder).WriteByte":   "strings.Builder grows",
	"strings.(Builder).WriteRune":   "strings.Builder grows",
	"strings.(Builder).Grow":        "strings.Builder grows",
	"strings.(Builder).String":      "strings.Builder.String allocates",

	"bytes.Clone":  "bytes.Clone allocates",
	"bytes.Join":   "bytes.Join allocates",
	"bytes.Repeat": "bytes.Repeat allocates",
	"bytes.Split":  "bytes.Split allocates",
	"bytes.Fields": "bytes.Fields allocates",

	"bytes.(Buffer).Write":       "bytes.Buffer grows",
	"bytes.(Buffer).WriteString": "bytes.Buffer grows",
	"bytes.(Buffer).WriteByte":   "bytes.Buffer grows",
	"bytes.(Buffer).WriteRune":   "bytes.Buffer grows",
	"bytes.(Buffer).Grow":        "bytes.Buffer grows",
	"bytes.(Buffer).String":      "bytes.Buffer.String allocates",

	"strconv.Itoa":        "strconv.Itoa allocates",
	"strconv.FormatInt":   "strconv.FormatInt allocates",
	"strconv.FormatUint":  "strconv.FormatUint allocates",
	"strconv.FormatFloat": "strconv.FormatFloat allocates",
	"strconv.Quote":       "strconv.Quote allocates",

	"time.Now":       "reads the wall clock (time.Now)",
	"time.Since":     "reads the wall clock (time.Since)",
	"time.Until":     "reads the wall clock (time.Until)",
	"time.Sleep":     "sleeps (time.Sleep)",
	"time.After":     "time.After allocates a timer",
	"time.Tick":      "time.Tick allocates a ticker",
	"time.NewTimer":  "time.NewTimer allocates",
	"time.NewTicker": "time.NewTicker allocates",

	"sync.(Mutex).Lock":      "acquires sync.Mutex",
	"sync.(Mutex).TryLock":   "acquires sync.Mutex",
	"sync.(RWMutex).Lock":    "acquires sync.RWMutex",
	"sync.(RWMutex).RLock":   "acquires sync.RWMutex (read)",
	"sync.(RWMutex).TryLock": "acquires sync.RWMutex",
	"sync.(WaitGroup).Wait":  "blocks on sync.WaitGroup.Wait",
	"sync.(Once).Do":         "sync.Once.Do may lock",
	"sync.(Cond).Wait":       "blocks on sync.Cond.Wait",

	"sync.(Map).Store":          "sync.Map may lock",
	"sync.(Map).Load":           "sync.Map may lock",
	"sync.(Map).LoadOrStore":    "sync.Map may lock",
	"sync.(Map).LoadAndDelete":  "sync.Map may lock",
	"sync.(Map).Delete":         "sync.Map may lock",
	"sync.(Map).Range":          "sync.Map may lock",
	"sync.(Map).Swap":           "sync.Map may lock",
	"sync.(Map).CompareAndSwap": "sync.Map may lock",

	"sort.Sort":        "sort.Sort allocates and is O(n log n)",
	"sort.Stable":      "sort.Stable allocates and is O(n log n)",
	"sort.Slice":       "sort.Slice allocates and is O(n log n)",
	"sort.SliceStable": "sort.SliceStable allocates and is O(n log n)",
	"sort.Strings":     "sort.Strings allocates and is O(n log n)",
	"sort.Ints":        "sort.Ints allocates and is O(n log n)",
}

// denyEffect classifies a call to a non-module function.
func denyEffect(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	if pkg.Path() == "fmt" {
		return "calls fmt." + fn.Name() + " (formats and allocates)"
	}
	return hotpathDeny[ObjKey(fn)]
}
