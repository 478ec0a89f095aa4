package analysis

import (
	"go/ast"
	"go/types"
)

// The poolsafe analyzer guards the sync.Pool discipline of the packet
// path: within one function, every pool a Get is drawn from must also
// see a Put (inline or deferred, possibly inside a nested closure) —
// unless the gotten object is returned, which transfers ownership to
// the caller. asic's two pools, the per-injection context and the
// burst's port-counter table, are the shape the rule expects: one
// injection gets both and puts both back before it returns. Pooled
// objects must not escape into retained structures: assigning one to
// a struct field, a map/slice element, a package variable, or sending
// it on a channel defeats recycling and risks aliasing after reuse.
//
// The check is per-function and flow-insensitive by design: it will
// not prove a Put on every path, but it catches the two bug classes
// that actually bite — the forgotten Put and the retained pooled
// object — with no false positives on the shipped pools.

// Poolsafe returns the poolsafe analyzer.
func Poolsafe() *Analyzer {
	return &Analyzer{
		Name: "poolsafe",
		Doc:  "every sync.Pool.Get needs a Put (or an ownership-transferring return); pooled objects must not escape into retained structures",
		Run:  runPoolsafe,
	}
}

// poolGet is one Get call and what became of its result.
type poolGet struct {
	call *ast.CallExpr
	v    *types.Var // variable the result was bound to, if any
}

func runPoolsafe(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(pass, fd)
		}
	}
	return nil
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	gets := make(map[types.Object][]*poolGet) // pool object -> gets
	puts := make(map[types.Object]int)        // pool object -> put count

	// Pass 1: find Get/Put calls on sync.Pool values, keyed by the
	// pool's own object (package var, field, or local).
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Get" && sel.Sel.Name != "Put" {
			return true
		}
		if !isSyncPool(info, sel.X) {
			return true
		}
		pool := rootObject(info, sel.X)
		if pool == nil {
			return true
		}
		if sel.Sel.Name == "Put" {
			puts[pool]++
			return true
		}
		gets[pool] = append(gets[pool], &poolGet{call: call})
		return true
	})
	if len(gets) == 0 {
		return
	}

	// Pass 2: bind Get results to variables and note direct returns.
	returned := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call := getCallIn(rhs)
				if call == nil || i >= len(n.Lhs) {
					continue
				}
				for _, pgs := range gets {
					for _, pg := range pgs {
						if pg.call == call {
							if id, ok := n.Lhs[i].(*ast.Ident); ok {
								if v, ok := info.Defs[id].(*types.Var); ok {
									pg.v = v
								} else if v, ok := info.Uses[id].(*types.Var); ok {
									pg.v = v
								}
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call := getCallIn(res); call != nil {
					returned[call] = true
				}
			}
		}
		return true
	})

	// A bound variable that is itself returned also transfers
	// ownership; one assigned into a retained structure escapes.
	for pool, pgs := range gets {
		for _, pg := range pgs {
			if pg.v != nil {
				checkPoolVar(pass, fd, pg, returned)
			}
			if puts[pool] > 0 || returned[pg.call] {
				continue
			}
			if pass.Waived(pg.call.Pos()) {
				continue
			}
			pass.Reportf(pg.call.Pos(),
				"sync.Pool.Get without a matching Put in %s (Put on every path, defer it, or return the object to transfer ownership)",
				fd.Name.Name)
		}
	}
}

// checkPoolVar flags escapes of a pooled variable and records
// ownership-transferring returns of it.
func checkPoolVar(pass *Pass, fd *ast.FuncDecl, pg *poolGet, returned map[*ast.CallExpr]bool) {
	info := pass.TypesInfo
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesVar(info, res, pg.v) {
					returned[pg.call] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isVarRef(info, rhs, pg.v) {
					continue
				}
				if retainedTarget(info, n.Lhs[i]) && !pass.Waived(n.Pos()) {
					pass.Reportf(n.Pos(),
						"pooled object %s escapes into a retained structure (it may be recycled while still referenced)",
						pg.v.Name())
				}
			}
		case *ast.SendStmt:
			if isVarRef(info, n.Value, pg.v) && !pass.Waived(n.Pos()) {
				pass.Reportf(n.Pos(),
					"pooled object %s escapes on a channel (it may be recycled while still referenced)",
					pg.v.Name())
			}
		}
		return true
	})
}

// isSyncPool reports whether an expression has type sync.Pool or
// *sync.Pool.
func isSyncPool(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// rootObject resolves the identity of a pool expression: the package
// variable, struct field, or local it names.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.UnaryExpr:
		return rootObject(info, e.X)
	}
	return nil
}

// getCallIn digs a pool Get call out of an expression, looking through
// type assertions, conversions, and parens: pool.Get().(*T), etc.
func getCallIn(e ast.Expr) *ast.CallExpr {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" {
			return e
		}
		if len(e.Args) == 1 {
			return getCallIn(e.Args[0]) // conversion
		}
	case *ast.TypeAssertExpr:
		return getCallIn(e.X)
	case *ast.StarExpr:
		return getCallIn(e.X)
	case *ast.IndexExpr:
		return getCallIn(e.X)
	case *ast.SliceExpr:
		return getCallIn(e.X)
	case *ast.UnaryExpr:
		return getCallIn(e.X)
	}
	return nil
}

// isVarRef reports whether e is (a unary-op or paren wrapping of) a
// direct reference to v.
func isVarRef(info *types.Info, e ast.Expr, v *types.Var) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e] == v
	case *ast.UnaryExpr:
		return isVarRef(info, e.X, v)
	}
	return false
}

// usesVar reports whether v appears anywhere in e.
func usesVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// retainedTarget reports whether an assignment target retains its
// value beyond the function: a struct field, a slice/map element, or
// a package-level variable.
func retainedTarget(info *types.Info, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.Ident:
		if v, ok := info.Uses[lhs].(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope() // package-level var
		}
	}
	return false
}
