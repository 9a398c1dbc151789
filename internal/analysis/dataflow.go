package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// This file holds the small forward-dataflow and escape helpers shared by
// the interprocedural analyzers. All of them are function-local,
// flow-insensitive approximations: they trade precision for zero false
// machinery, and every consumer pairs them with the //tfcvet:allow
// escape hatch for the deliberate exceptions.

// escapingFuncLits returns the function literals in body that escape
// their creation site: everything except a literal that is immediately
// invoked (`func() { ... }()`), which Go compiles without allocating a
// closure object on the heap in the common case. A literal passed as an
// argument, assigned, returned, or launched as a goroutine allocates.
func escapingFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	invoked := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if lit, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
			invoked[lit] = true
		}
		return true
	})
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, isLit := n.(*ast.FuncLit); isLit && !invoked[lit] {
			out = append(out, lit)
		}
		return true
	})
	return out
}

// boundMethodValues returns the selectors in body that evaluate a method
// value — `x.m` anywhere but in call position, as in `s.After(d, x.m)`.
// Each evaluation binds the receiver in a fresh closure object, exactly
// like the literal `func() { x.m() }` it abbreviates. A method expression
// (`T.m`) binds nothing and is not reported.
func boundMethodValues(pass *Pass, body *ast.BlockStmt) []*ast.SelectorExpr {
	called := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall {
			if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
				called[sel] = true
			}
		}
		return true
	})
	var out []*ast.SelectorExpr
	ast.Inspect(body, func(n ast.Node) bool {
		sel, isSel := n.(*ast.SelectorExpr)
		if !isSel || called[sel] {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			out = append(out, sel)
		}
		return true
	})
	return out
}

// presizedSliceVars runs the forward pass of the append check: it
// returns the local slice variables of body whose backing array is
// provably pre-sized — defined by a make with an explicit length or
// capacity, by a composite literal, or re-armed by the `s = s[:0]` reuse
// idiom. Appending to anything else (a bare `var s []T`, a struct field,
// a parameter of unknown capacity) can grow the backing array on the hot
// path.
func presizedSliceVars(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	presized := make(map[*types.Var]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id := identOf(lhs)
		if id == nil {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		v, isVar := obj.(*types.Var)
		if !isVar {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if presizingExpr(pass, rhs, v) {
			presized[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			if gd, isGen := st.Decl.(*ast.GenDecl); isGen {
				for _, spec := range gd.Specs {
					vs, isVal := spec.(*ast.ValueSpec)
					if !isVal || len(vs.Names) != len(vs.Values) {
						continue
					}
					for i, name := range vs.Names {
						record(name, vs.Values[i])
					}
				}
			}
		}
		return true
	})
	return presized
}

// presizingExpr reports whether rhs pre-sizes a slice bound to v: a make
// with explicit length/capacity, a composite literal, a reslice (the
// `s = buf[:0]` reuse idiom — a reslice shares its base's backing array,
// so appends only grow past the retained capacity, the amortized case),
// or `append(v, ...)` growth of an already-presized v.
func presizingExpr(pass *Pass, rhs ast.Expr, v *types.Var) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if id := identOf(e.Fun); id != nil {
			if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB {
				switch b.Name() {
				case "make":
					return len(e.Args) >= 2
				case "append":
					// `v = append(v, ...)` keeps v's status; appending into a
					// different variable does not transfer it.
					if len(e.Args) > 0 {
						if aid := identOf(e.Args[0]); aid != nil {
							return pass.TypesInfo.Uses[aid] == v
						}
					}
				}
			}
		}
	case *ast.CompositeLit:
		return true
	case *ast.SliceExpr:
		return true
	}
	return false
}

// taintSourceFn classifies a selector expression as a taint source; see
// taintedVars.
type taintSourceFn func(pass *Pass, sel *ast.SelectorExpr) bool

// taintedVars runs a small forward taint pass over body: a local
// variable becomes tainted when it is assigned an expression that
// contains a source (per isSource) or a previously tainted variable.
// The pass iterates to a fixpoint so declaration order does not matter;
// bodies are small enough that the quadratic worst case is irrelevant.
func taintedVars(pass *Pass, body *ast.BlockStmt, isSource taintSourceFn) map[*types.Var]bool {
	tainted := make(map[*types.Var]bool)
	for {
		grew := false
		mark := func(lhs ast.Expr, rhs ast.Expr) {
			id := identOf(lhs)
			if id == nil {
				return
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			v, isVar := obj.(*types.Var)
			if !isVar || tainted[v] {
				return
			}
			if exprTainted(pass, rhs, tainted, isSource) {
				tainted[v] = true
				grew = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						mark(st.Lhs[i], st.Rhs[i])
					}
				} else if len(st.Rhs) == 1 {
					// h, ok := peer.(*Switch): every binding inherits the
					// single source's taint.
					for i := range st.Lhs {
						mark(st.Lhs[i], st.Rhs[0])
					}
				}
			case *ast.RangeStmt:
				// `for _, x := range tainted` taints x.
				if exprTainted(pass, st.X, tainted, isSource) {
					if st.Key != nil {
						mark(st.Key, st.X)
					}
					if st.Value != nil {
						mark(st.Value, st.X)
					}
				}
			}
			return true
		})
		if !grew {
			return tainted
		}
	}
}

// exprTainted reports whether e is derived from a taint source: it is a
// source itself, mentions a tainted variable as its base, or is a method
// call / selector / index rooted at a tainted value (a getter on a
// foreign entity yields a foreign value).
func exprTainted(pass *Pass, e ast.Expr, tainted map[*types.Var]bool, isSource taintSourceFn) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, isVar := pass.TypesInfo.Uses[x].(*types.Var); isVar {
			return tainted[v]
		}
	case *ast.SelectorExpr:
		if isSource(pass, x) {
			return true
		}
		return exprTainted(pass, x.X, tainted, isSource)
	case *ast.CallExpr:
		if sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr); isSel {
			// A method's result inherits its receiver's taint; a plain
			// function call launders it (conservatively untainted).
			if _, isMethod := pass.TypesInfo.Selections[sel]; isMethod {
				return exprTainted(pass, sel.X, tainted, isSource)
			}
		}
	case *ast.IndexExpr:
		return exprTainted(pass, x.X, tainted, isSource)
	case *ast.StarExpr:
		return exprTainted(pass, x.X, tainted, isSource)
	case *ast.UnaryExpr:
		return exprTainted(pass, x.X, tainted, isSource)
	case *ast.TypeAssertExpr:
		// peer.(*Switch) narrows the type, not the ownership.
		return exprTainted(pass, x.X, tainted, isSource)
	}
	return false
}

// namedOf unwraps pointers and returns the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// definedIn reports whether t (possibly behind a pointer) is a named
// type defined in the package with the given import path.
func definedIn(t types.Type, pkgPath string) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// constIntValue returns the constant integer value of e, if it has one.
func constIntValue(pass *Pass, e ast.Expr) (int64, bool) {
	tv, known := pass.TypesInfo.Types[e]
	if !known || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// recvExprOf returns the receiver expression of a method call, or nil.
func recvExprOf(call *ast.CallExpr) ast.Expr {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil
	}
	return sel.X
}

// isMethodCall reports whether call is a method call (not a qualified
// package function), returning the callee.
func isMethodCall(pass *Pass, call *ast.CallExpr) (*types.Func, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	if _, isMethod := pass.TypesInfo.Selections[sel]; !isMethod {
		return nil, false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn, isFn
}
