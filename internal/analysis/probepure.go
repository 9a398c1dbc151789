package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Probepure enforces the observer contract stated on netsim.Probe, the
// simulator's one observer interface, for everything that consumes its
// event stream (telemetry.Trial and the consumers it fans out to, obs's
// span tracer, flight ring and watchdogs, tfctrace's text view) and for
// the faults.Scheduler.Probe callback: probes run inside the forwarding
// path, on the simulation's virtual timeline, and must be invisible to it. A probe that mutates simulator
// or entity state, draws from a deterministic Rand stream, or schedules
// an event changes the trajectory it claims to observe — and because
// probes are usually enabled only for instrumented trials, the bug
// presents as "results change when telemetry is on", the least
// debuggable symptom in the repo.
//
// Roots — the code treated as probe context — are found three ways,
// intersected with nothing (any match makes a root):
//
//   - methods through which a receiver type implements an interface
//     named *Probe defined in a tfcsim/internal package (imported or
//     local) — every Observe(netsim.Event), whatever its type is called;
//   - methods whose receiver type name ends in Probe or Watchdog (obs's
//     invariant predicates — they run inside Observe and are held to the
//     same contract);
//   - declared functions/methods whose own name ends in Probe — the
//     factories (telemetry.Trial.FaultProbe, DialProbe) whose returned
//     closures or values are the installed probe bodies; function literals are
//     attributed to their enclosing declaration — or in Snapshot (obs's
//     state readers: they sample live simulator/port state and must be
//     pure reads whether they run as virtual-time events or behind the
//     HTTP endpoint).
//
// Within the per-package reachable set of those roots, the analyzer
// flags:
//
//   - writes (assignment, ++/--) whose target lives in a simulation
//     package — sim/netsim/transport packages and faults — unless the
//     written-through base is the probe's own receiver (a probe owns its
//     counters, wherever its type is declared);
//   - scheduling calls (Simulator At/After/Schedule* and Group.Post);
//   - randomness: any call into math/rand, or a Rand()/Rand access on a
//     simulation type — consuming a draw perturbs every later consumer
//     of the stream;
//   - calls to potentially mutating methods (pointer receiver or
//     interface, outside the read-only allowlist) on simulation-package
//     values.
var Probepure = &Analyzer{
	Name: "probepure",
	Doc:  "flag probe and telemetry-sink code that mutates sim state, consumes Rand, or schedules events",
	Run:  runProbepure,
}

// probeStateScope are the packages whose state a probe must not touch.
var probeStateScope = regexp.MustCompile(`^tfcsim/internal/(sim|netsim|core|credit|tcp|dctcp|bfc|tinytcp|transport|faults)($|/)`)

// probepureReadonly are simulation-type methods a probe may call:
// identity, clocks, and counters that exist for observers. The list is
// additive — a missing entry shows up as a finding to triage, never as a
// silent pass.
var probepureReadonly = map[string]bool{
	"ID": true, "Name": true, "String": true, "Label": true, "Ordinal": true,
	"Now": true, "Seed": true, "Executed": true, "Pending": true, "Live": true,
	"Sim": true, "Network": true, "NIC": true, "Ports": true, "Nodes": true,
	"Endpoint": true, "Paused": true, "Group": true, "Shards": true,
	"QueueBytes": true, "QueueLen": true, "Busy": true, "Down": true,
	"Utilization": true, "FrameBytes": true, "WireBytes": true,
	"PortTo": true, "PortsTo": true, "PortFor": true, "PortState": true,
	"Tokens": true, "EffectiveFlows": true, "Window": true, "MissK": true,
	"Seconds": true, "Micros": true, "Millis": true, "Peer": true, "Owner": true,
	"Lookahead": true, "Epochs": true,
	// Self-profiling accessors: Group.Stats/Simulator.DispatchStats copy
	// counters out; Pulse.Load is a lock-free atomic read of the progress
	// mailbox.
	"Stats": true, "DispatchStats": true, "Load": true,
	// Packet.IsData reads the flags word.
	"IsData": true,
}

func runProbepure(pass *Pass) error {
	g := buildCallGraph(pass)
	ifaces := probeInterfaces(pass)
	var roots []*cgNode
	for fn, n := range g.nodes {
		if probepureIsRoot(pass, fn, ifaces) {
			roots = append(roots, n)
		}
	}
	for n := range g.reachableFrom(roots) {
		probepureCheckFunc(pass, n.decl)
	}
	return nil
}

// probeInterfaces collects every interface named *Probe declared in a
// tfcsim/internal package visible to this pass.
func probeInterfaces(pass *Pass) []*types.Interface {
	var out []*types.Interface
	scan := func(pkg *types.Package) {
		if !strings.HasPrefix(pkg.Path(), "tfcsim/internal/") {
			return
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if !strings.HasSuffix(name, "Probe") {
				continue
			}
			tn, isType := scope.Lookup(name).(*types.TypeName)
			if !isType {
				continue
			}
			if iface, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				out = append(out, iface)
			}
		}
	}
	scan(pass.Pkg)
	for _, imp := range pass.Pkg.Imports() {
		scan(imp)
	}
	return out
}

// probepureIsRoot decides whether fn starts probe context. The
// name-suffix heuristics exempt methods whose receiver is itself a
// simulation-scope type: TFC's wire protocol has probe *packets* (paper
// §4.6), so a transport's sendProbe is a sender, not an observer. The
// interface rule still applies there — a simulation type that actually
// implements a *Probe interface is held to the observer contract.
func probepureIsRoot(pass *Pass, fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	simRecv := false
	if recv != nil {
		if named := namedOf(recv.Type()); named != nil && named.Obj().Pkg() != nil {
			simRecv = probeStateScope.MatchString(named.Obj().Pkg().Path())
		}
	}
	if (strings.HasSuffix(fn.Name(), "Probe") || strings.HasSuffix(fn.Name(), "Snapshot")) && !simRecv {
		return true
	}
	if recv == nil {
		return false
	}
	if named := namedOf(recv.Type()); named != nil && !simRecv {
		low := strings.ToLower(named.Obj().Name())
		if strings.HasSuffix(low, "probe") || strings.HasSuffix(low, "watchdog") {
			return true
		}
	}
	for _, iface := range ifaces {
		if !implementsIface(recv.Type(), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

func probepureCheckFunc(pass *Pass, decl *ast.FuncDecl) {
	recvVar := probepureRecvVar(pass, decl)
	simState := func(e ast.Expr) bool {
		if probepureRootedAtRecv(pass, e, recvVar) {
			return false
		}
		t := pass.TypesInfo.TypeOf(e)
		named := namedOf(t)
		if named == nil {
			return false
		}
		obj := named.Obj()
		return obj.Pkg() != nil && probeStateScope.MatchString(obj.Pkg().Path())
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if base, isWrite := shardsafeWriteBase(lhs); isWrite && simState(base) {
					pass.Reportf(lhs.Pos(),
						"probe code in %s writes simulation state; probes are read-only observers — accumulate into the probe's own fields instead",
						decl.Name.Name)
				}
			}
		case *ast.IncDecStmt:
			if base, isWrite := shardsafeWriteBase(st.X); isWrite && simState(base) {
				pass.Reportf(st.X.Pos(),
					"probe code in %s writes simulation state; probes are read-only observers — accumulate into the probe's own fields instead",
					decl.Name.Name)
			}
		case *ast.SelectorExpr:
			if path, name, isQual := pkgPathOf(pass.TypesInfo, st); isQual && path == "math/rand" && name != "Rand" && name != "Source" {
				pass.Reportf(st.Pos(),
					"probe code in %s touches math/rand; consuming a draw shifts every later consumer of the deterministic stream",
					decl.Name.Name)
			}
		case *ast.CallExpr:
			probepureCheckCall(pass, decl, st, simState)
		}
		return true
	})
}

func probepureCheckCall(pass *Pass, decl *ast.FuncDecl, call *ast.CallExpr, simState func(ast.Expr) bool) {
	fn, isMethod := isMethodCall(pass, call)
	if !isMethod {
		return
	}
	recv := recvExprOf(call)
	if fn.Pkg() != nil && fn.Pkg().Path() == simPkgPath &&
		(simulatorScheduleMethods[fn.Name()] || fn.Name() == "Post") {
		pass.Reportf(call.Pos(),
			"probe code in %s schedules an event (%s); probes must not alter the event timeline",
			decl.Name.Name, callName(call))
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" {
		pass.Reportf(call.Pos(),
			"probe code in %s draws from a rand stream (%s); consuming a draw shifts every later consumer",
			decl.Name.Name, callName(call))
		return
	}
	if recv == nil || !simState(recv) {
		return
	}
	if fn.Name() == "Rand" {
		pass.Reportf(call.Pos(),
			"probe code in %s obtains a simulation Rand stream; probes must not consume deterministic draws",
			decl.Name.Name)
		return
	}
	if probepureReadonly[fn.Name()] {
		return
	}
	// Forwarding into another probe (a fan-out handing the record on) is
	// allowed: the callee implements a *Probe interface and is checked as a
	// root itself.
	if named := namedOf(pass.TypesInfo.TypeOf(recv)); named != nil {
		if _, isIface := named.Underlying().(*types.Interface); isIface &&
			strings.HasSuffix(named.Obj().Name(), "Probe") {
			return
		}
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig {
		if r := sig.Recv(); r != nil {
			if _, isPtr := r.Type().(*types.Pointer); !isPtr {
				if _, isIface := r.Type().Underlying().(*types.Interface); !isIface {
					return // value receiver: operates on a copy
				}
			}
		}
	}
	pass.Reportf(call.Pos(),
		"probe code in %s calls %s, which may mutate simulation state; use a read-only accessor or extend the probepure allowlist with a justification",
		decl.Name.Name, callName(call))
}

// probepureRecvVar returns the declared receiver variable of decl, if
// any.
func probepureRecvVar(pass *Pass, decl *ast.FuncDecl) *types.Var {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[decl.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// probepureRootedAtRecv reports whether e dereferences the probe's own
// receiver (its private counters), walking selectors/indexes to the root
// identifier.
func probepureRootedAtRecv(pass *Pass, e ast.Expr, recv *types.Var) bool {
	if recv == nil {
		return false
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x] == recv
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}
