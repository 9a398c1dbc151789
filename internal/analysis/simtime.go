package analysis

import (
	"go/ast"
	"regexp"
)

// Simtime enforces the clock boundary: packages that run *inside* the
// discrete-event simulation must express time exclusively as sim.Time
// (integer virtual nanoseconds) and must never touch package time —
// neither time.Now nor "harmless" time.Duration arithmetic. A
// time.Duration smuggled into simulation code is a latent unit bug (it
// type-checks against int64 math) and an invitation to compare virtual
// timestamps against wall-clock quantities. The sim package's doc
// comment declares this contract ("deliberately distinct from
// time.Time/time.Duration so that wall-clock APIs cannot leak into
// simulated code"); this analyzer makes it law.
//
// Packages outside the simulation boundary (the runner, cmd/, root
// experiment plumbing) may use package time freely — subject to detrand
// for the wall-clock entry points.
var Simtime = &Analyzer{
	Name: "simtime",
	Doc:  "forbid package time (time.Time/time.Duration/wall-clock APIs) inside simulation packages; virtual time is sim.Time",
	Run:  runSimtime,
}

// SimtimeScope matches the import paths of the packages that live
// inside the simulation boundary. Var, not const, so a bring-up branch
// can widen or narrow the boundary in one place.
var SimtimeScope = regexp.MustCompile(
	`^tfcsim/internal/(sim|netsim|core|credit|tcp|dctcp|bfc|tinytcp|transport|exp|telemetry|model|workload)($|/)`)

func runSimtime(pass *Pass) error {
	if !SimtimeScope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, isSel := n.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			path, name, isQualified := pkgPathOf(pass.TypesInfo, sel)
			if !isQualified || path != "time" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"simulation package %s uses time.%s; inside the simulation boundary time is sim.Time on the simulator clock (annotate `//tfcvet:allow simtime — <reason>` if wall time is genuinely meant)",
				pass.Pkg.Path(), name)
			return true
		})
	}
	return nil
}
