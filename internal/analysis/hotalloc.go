package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// Hotalloc turns the allocation gates (TestEngineThroughputAllocs and
// TestSteadyStateAllocs: 0.000 allocs/pkt-hop in the settled window) from
// a measured assertion into a lint:
// inside the forwarding-path packages, every function reachable from an
// event or forwarding entry point must be allocation-free in steady
// state. The tests can only measure the topologies they run; the
// analyzer certifies the property for every function the call graph can
// reach, including paths only exercised under loss, faults, or future
// transports.
//
// Roots are the contract-surface methods where the event loop or the
// forwarding path enters a package: sim.EventTarget.RunEvent,
// netsim.Node.Receive, netsim.Endpoint.Deliver, netsim.PortHook.
// OnEnqueue, and netsim.Interceptor.Intercept. Reachability is computed
// on the per-package call graph (callgraph.go); cross-package calls into
// helper packages are invisible to it, which is exactly the gap the
// measured gates still cover (see the poolsafe_gap fixture corpus).
//
// Five allocation shapes are flagged in reachable bodies:
//
//   - a function literal that escapes its creation site (anything but an
//     immediately-invoked literal) — closures allocate;
//   - a method value (`x.m` not in call position, as in
//     `s.After(d, x.m)`) — it is that closure in shorter spelling;
//   - any call into package fmt — fmt both allocates and boxes its
//     variadic arguments; a call whose result feeds directly into panic
//     is exempt (the sim is already dead);
//   - a call boxing arguments into a variadic ...interface{} parameter
//     (the same escape fmt causes, through any API);
//   - a built-in append whose destination is not a local slice that the
//     same function provably pre-sized (make with explicit size,
//     composite literal, or the s = s[:0] reuse idiom). Appends to
//     fields and parameters grow backing arrays on the hot path —
//     amortized pool growth is the legitimate exception and carries a
//     //tfcvet:allow hotalloc directive with its amortization argument.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag heap-allocating constructs in event-reachable code of the forwarding-path packages",
	Run:  runHotalloc,
}

// hotallocScope is the set of packages under those gates.
var hotallocScope = regexp.MustCompile(`^tfcsim/internal/(sim|netsim|core|credit|tcp|dctcp|bfc|tinytcp|transport)($|/)`)

// hotRootNames are the method names that admit control into a package's
// hot path. A method with one of these names is treated as a root
// whether or not the defining interface is visible — conservative in the
// direction that matters (more code certified, never less).
var hotRootNames = map[string]bool{
	"RunEvent":  true, // sim.EventTarget
	"Receive":   true, // netsim.Node
	"Deliver":   true, // netsim.Endpoint
	"OnEnqueue": true, // netsim.PortHook
	"Intercept": true, // netsim.Interceptor
}

func runHotalloc(pass *Pass) error {
	if !hotallocScope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	g := buildCallGraph(pass)
	var roots []*cgNode
	for fn, n := range g.nodes {
		if fn.Type().(*types.Signature).Recv() != nil && hotRootNames[fn.Name()] {
			roots = append(roots, n)
		}
	}
	for n := range g.reachableFrom(roots) {
		hotallocCheckFunc(pass, n.decl)
	}
	return nil
}

// hotallocCheckFunc flags the allocating constructs in one reachable
// declaration (function literals inside it included — they run on the
// same path).
func hotallocCheckFunc(pass *Pass, decl *ast.FuncDecl) {
	for _, lit := range escapingFuncLits(decl.Body) {
		pass.Reportf(lit.Pos(),
			"closure escapes in event-reachable %s; closures allocate per call and break the 0 allocs/pkt-hop gate — use a pooled EventTarget or a port-resident event instead",
			decl.Name.Name)
	}

	for _, sel := range boundMethodValues(pass, decl.Body) {
		pass.Reportf(sel.Pos(),
			"method value %s bound in event-reachable %s; binding the receiver allocates a closure per evaluation — make the receiver a resident EventTarget instead",
			sel.Sel.Name, decl.Name.Name)
	}

	presized := presizedSliceVars(pass, decl.Body)
	panicArg := hotallocPanicArgs(pass, decl.Body)

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if isBuiltinAppend(pass, call) {
			hotallocCheckAppend(pass, decl, call, presized)
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "fmt" {
			if !panicArg[call] {
				pass.Reportf(call.Pos(),
					"%s called in event-reachable %s; fmt allocates and boxes its arguments — format off the hot path or move this to a panic/error exit",
					callName(call), decl.Name.Name)
			}
			return true
		}
		if hotallocBoxesVariadic(pass, call, fn) {
			pass.Reportf(call.Pos(),
				"%s boxes arguments into ...interface{} in event-reachable %s; each boxed argument escapes to the heap",
				callName(call), decl.Name.Name)
		}
		return true
	})
}

// hotallocPanicArgs collects fmt calls whose result feeds directly into
// panic — the run is over, allocation is irrelevant.
func hotallocPanicArgs(pass *Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	exempt := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		id := identOf(call.Fun)
		if id == nil {
			return true
		}
		if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); !isB || b.Name() != "panic" {
			return true
		}
		for _, arg := range call.Args {
			if inner, isInner := ast.Unparen(arg).(*ast.CallExpr); isInner {
				exempt[inner] = true
			}
		}
		return true
	})
	return exempt
}

// hotallocBoxesVariadic reports whether call passes at least one
// implicitly boxed argument to a ...interface{} parameter. An explicit
// s... spread passes an existing slice and boxes nothing.
func hotallocBoxesVariadic(pass *Pass, call *ast.CallExpr, fn *types.Func) bool {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || !sig.Variadic() || call.Ellipsis.IsValid() {
		return false
	}
	params := sig.Params()
	last := params.At(params.Len() - 1)
	slice, isSlice := last.Type().(*types.Slice)
	if !isSlice {
		return false
	}
	iface, isIface := slice.Elem().Underlying().(*types.Interface)
	if !isIface || !iface.Empty() {
		return false
	}
	return len(call.Args) >= params.Len()
}

// hotallocCheckAppend flags appends whose destination the function did
// not provably pre-size.
func hotallocCheckAppend(pass *Pass, decl *ast.FuncDecl, call *ast.CallExpr, presized map[*types.Var]bool) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if id, isIdent := dst.(*ast.Ident); isIdent {
		if v, isVar := pass.TypesInfo.Uses[id].(*types.Var); isVar && presized[v] {
			return
		}
	}
	pass.Reportf(call.Pos(),
		"un-presized append in event-reachable %s; growth allocates on the hot path — pre-size with make, reuse with s[:0], or annotate amortized pool growth with //tfcvet:allow hotalloc",
		decl.Name.Name)
}
