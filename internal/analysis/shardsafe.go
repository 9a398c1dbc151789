package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// Shardsafe machine-checks the ownership rule that makes the partitioned
// engine lock-free and byte-identical to sequential (DESIGN.md §10):
// after netsim.Network.Partition, every node, port, and pool belongs to
// exactly one shard, and code running on one shard's goroutine — anything
// reachable from that shard's EventTargets — must not mutate another
// shard's entities or schedule on another shard's Simulator. The one
// sanctioned crossing is sim.Group.Post, which hands an event to the
// deterministic epoch mailbox.
//
// The check is a per-function forward taint pass over event-reachable
// code. Taint sources are the two expressions that cross the ownership
// boundary: the .Peer selector on a netsim.Port (the node on the far end
// of a link, possibly on another shard) and the unexported .peerSh shard
// handle. Anything derived from a tainted value — field reads, method
// results, copies — stays tainted. Flagged:
//
//   - a write (assignment or ++/--) through a tainted base: a direct
//     mutation of another shard's entity;
//   - a Simulator scheduling call (At/After/Schedule/ScheduleAfter/
//     ScheduleAfterRank) whose receiver is tainted: scheduling on a
//     foreign shard's event loop corrupts its timer wheel;
//   - any other potentially mutating method call on a tainted receiver —
//     pointer-receiver or interface methods outside a small read-only
//     allowlist.
//
// Reads of tainted values are deliberately not flagged: immutable
// identity fields (NodeID, shard id) legitimately feed Group.Post, and
// Post itself is invoked on an untainted Group receiver, so the
// sanctioned crossing needs no special case. The one delivery path the
// engine guards dynamically (rxEvent.RunEvent executes on the receiving
// shard: finishTx scheduled it there, or the mailbox moved it there) is
// annotated with //tfcvet:allow shardsafe at the three sites where the
// guarantee is structural rather than lexical.
var Shardsafe = &Analyzer{
	Name: "shardsafe",
	Doc:  "flag cross-shard mutation or scheduling outside the Group.Post mailbox in event-reachable code",
	Run:  runShardsafe,
}

// shardsafeScope: packages whose code runs on shard goroutines.
var shardsafeScope = regexp.MustCompile(`^tfcsim/internal/(sim|netsim|core|credit|tcp|dctcp|bfc|tinytcp|transport)($|/)`)

const simPkgPath = "tfcsim/internal/sim"

// simulatorScheduleMethods are the sim.Simulator entry points that feed
// a shard's private timer wheel.
var simulatorScheduleMethods = map[string]bool{
	"At": true, "After": true,
	"Schedule": true, "ScheduleAfter": true, "ScheduleAfterRank": true,
}

// shardsafeReadonly are methods safe to call on a foreign entity: pure
// observers of identity or immutable configuration.
var shardsafeReadonly = map[string]bool{
	"ID": true, "Name": true, "String": true, "Sim": true,
	"Ports": true, "Seconds": true, "Micros": true, "Millis": true,
}

func runShardsafe(pass *Pass) error {
	if !shardsafeScope.MatchString(pass.Pkg.Path()) {
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
		shardsafeCheckFunc(pass, n.decl)
	}
	return nil
}

// isShardTaintSource marks the expressions whose value belongs to the
// far side of a link: port.Peer and port.peerSh.
func isShardTaintSource(pass *Pass, sel *ast.SelectorExpr) bool {
	name := sel.Sel.Name
	if name != "Peer" && name != "peerSh" {
		return false
	}
	named := namedOf(pass.TypesInfo.TypeOf(sel.X))
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Port" && obj.Pkg() != nil && obj.Pkg().Path() == packetPkgPath
}

func shardsafeCheckFunc(pass *Pass, decl *ast.FuncDecl) {
	tainted := taintedVars(pass, decl.Body, isShardTaintSource)
	foreign := func(e ast.Expr) bool {
		return exprTainted(pass, e, tainted, isShardTaintSource)
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if base, isWrite := shardsafeWriteBase(lhs); isWrite && foreign(base) {
					pass.Reportf(lhs.Pos(),
						"write to another shard's entity in event-reachable %s; cross-shard effects must travel through Group.Post",
						decl.Name.Name)
				}
			}
		case *ast.IncDecStmt:
			if base, isWrite := shardsafeWriteBase(st.X); isWrite && foreign(base) {
				pass.Reportf(st.X.Pos(),
					"write to another shard's entity in event-reachable %s; cross-shard effects must travel through Group.Post",
					decl.Name.Name)
			}
		case *ast.CallExpr:
			fn, isMethod := isMethodCall(pass, st)
			if !isMethod {
				return true
			}
			recv := recvExprOf(st)
			if recv == nil || !foreign(recv) {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == simPkgPath && simulatorScheduleMethods[fn.Name()] {
				pass.Reportf(st.Pos(),
					"%s schedules on another shard's Simulator in event-reachable %s; a foreign timer wheel is not goroutine-safe — post through Group.Post",
					callName(st), decl.Name.Name)
				return true
			}
			if shardsafeReadonly[fn.Name()] {
				return true
			}
			if sig, isSig := fn.Type().(*types.Signature); isSig {
				if r := sig.Recv(); r != nil {
					if _, isPtr := r.Type().(*types.Pointer); !isPtr {
						if _, isIface := r.Type().Underlying().(*types.Interface); !isIface {
							return true // value receiver: operates on a copy
						}
					}
				}
			}
			pass.Reportf(st.Pos(),
				"%s may mutate another shard's entity in event-reachable %s; cross-shard effects must travel through Group.Post (annotate //tfcvet:allow shardsafe where the engine guarantees same-shard execution)",
				callName(st), decl.Name.Name)
		}
		return true
	})
}

// shardsafeWriteBase returns the base expression being written through,
// if lhs is a write into existing storage (field, element, pointer
// target) rather than a local rebind.
func shardsafeWriteBase(lhs ast.Expr) (ast.Expr, bool) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return x.X, true
	case *ast.IndexExpr:
		return x.X, true
	case *ast.StarExpr:
		return x.X, true
	}
	return nil, false
}
