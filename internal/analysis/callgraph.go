package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the interprocedural layer hotalloc builds on: a
// lightweight per-package call graph over go/types. Nodes are the package's declared functions and
// methods; edges are
//
//   - static calls and references: any use of an in-package function or
//     method (of a generic one, through any instantiation) — direct
//     call, method value, function passed as an argument
//     (`sort.Slice(x, less)`), goroutine/defer — counts as a potential
//     call. Reference-taken-implies-called is deliberately conservative:
//     the consumers are reachability analyses, where a missing edge is a
//     silent false negative;
//   - interface method-set resolution: a call through an interface method
//     (most importantly sim.EventTarget.RunEvent, but equally
//     netsim.Node.Receive, netsim.Endpoint.Deliver, netsim.PortHook.
//     OnEnqueue) adds edges to every in-package method of the same name
//     whose receiver type implements the interface.
//
// The graph is intra-package by construction — the unitchecker protocol
// hands tfcvet one package at a time with export data (types, no bodies)
// for its dependencies, so edges cannot cross the package boundary.
// hotalloc compensates by rooting its traversal at the contract surface
// of each package (RunEvent/Receive/Deliver/OnEnqueue/Intercept methods),
// which is exactly where cross-package control flow re-enters a package. The remaining blind spots are documented in
// the poolsafe_gap fixture corpus.
type callGraph struct {
	pass *Pass
	// nodes maps every declared function/method with a body to its graph
	// node. FuncLit bodies are attributed to their enclosing declaration.
	nodes map[*types.Func]*cgNode
	// methodsByName indexes nodes that are methods, for interface
	// resolution.
	methodsByName map[string][]*cgNode
}

// cgNode is one declared function or method.
type cgNode struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	callees []*cgNode
	seen    map[*cgNode]bool // edge dedup during construction
}

// buildCallGraph constructs the package call graph for one pass.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		pass:          pass,
		nodes:         make(map[*types.Func]*cgNode),
		methodsByName: make(map[string][]*cgNode),
	}
	for _, f := range pass.Files {
		// Test files are outside the contracts (the checker drops their
		// diagnostics), so they must not contribute nodes, roots, or
		// edges either: under go vet the test-augmented package variant
		// includes _test.go sources, and a benchmark's event type would
		// otherwise pull library helpers into the event-reachable set.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			fn, isFn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !isFn {
				continue
			}
			n := &cgNode{fn: fn, decl: fd, seen: make(map[*cgNode]bool)}
			g.nodes[fn] = n
			if fn.Type().(*types.Signature).Recv() != nil {
				g.methodsByName[fn.Name()] = append(g.methodsByName[fn.Name()], n)
			}
		}
	}
	for _, n := range g.nodes {
		g.addEdges(n)
	}
	return g
}

// addEdges walks one declaration body and records its potential callees.
func (g *callGraph) addEdges(n *cgNode) {
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		id, isIdent := x.(*ast.Ident)
		if !isIdent {
			return true
		}
		fn, isFn := g.pass.TypesInfo.Uses[id].(*types.Func)
		if !isFn {
			return true
		}
		// A use of a generic function or of a generic type's method names
		// an instantiation; the node is its declaration.
		fn = fn.Origin()
		if tgt, local := g.nodes[fn]; local {
			n.addEdge(tgt)
			return true
		}
		// Not a declared in-package function: if it is an interface
		// method, resolve it against the package's method sets.
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return true
		}
		iface, isIface := recv.Type().Underlying().(*types.Interface)
		if !isIface {
			return true
		}
		for _, m := range g.implementers(iface, fn.Name()) {
			n.addEdge(m)
		}
		return true
	})
}

func (n *cgNode) addEdge(tgt *cgNode) {
	if n.seen[tgt] {
		return
	}
	n.seen[tgt] = true
	n.callees = append(n.callees, tgt)
}

// implementers returns the in-package methods named name whose receiver
// type satisfies iface.
func (g *callGraph) implementers(iface *types.Interface, name string) []*cgNode {
	var out []*cgNode
	for _, m := range g.methodsByName[name] {
		recv := m.fn.Type().(*types.Signature).Recv().Type()
		if implementsIface(recv, iface) {
			out = append(out, m)
		}
	}
	return out
}

// implementsIface reports whether t — or, for a value receiver type, *t —
// satisfies iface.
func implementsIface(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// reachableFrom returns the transitive closure of the root set (roots
// included).
func (g *callGraph) reachableFrom(roots []*cgNode) map[*cgNode]bool {
	seen := make(map[*cgNode]bool, len(roots))
	stack := append([]*cgNode(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, n.callees...)
	}
	return seen
}
