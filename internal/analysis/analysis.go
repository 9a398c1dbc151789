// Package analysis is tfcvet's analyzer framework: a minimal,
// dependency-free mirror of the golang.org/x/tools/go/analysis API plus
// the five analyzers that machine-check this repository's determinism,
// sim-time, pool-lifetime and hot-path allocation contracts (see
// DESIGN.md, "Determinism & pooling contracts").
//
// The build environment for this repository is fully offline, so the
// framework deliberately reimplements the small slice of the x/tools API
// the suite needs (Analyzer, Pass, Diagnostic) on top of the standard
// library's go/ast and go/types instead of importing
// golang.org/x/tools. The shapes match the upstream API closely enough
// that porting the analyzers onto the real framework is a rename, should
// the dependency ever become available.
//
// Findings can be suppressed case-by-case with a directive comment
//
//	//tfcvet:allow <check>[,<check>...] — <one-line justification>
//
// placed on the offending line or on the line directly above it; see
// directive.go for the grammar. A directive without a justification is
// itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Mirrors
// golang.org/x/tools/go/analysis.Analyzer, minus facts and requires
// (every tfcvet analyzer is self-contained and intra-package).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //tfcvet:allow directives. It must be a valid identifier.
	Name string
	// Doc is the analyzer's documentation: a one-line summary,
	// optionally followed by a blank line and details (shown by
	// `tfcvet help`).
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report/Reportf.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run with a single type-checked package, and
// collects the diagnostics it reports. Mirrors
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos token.Pos
	// Check is the name of the analyzer (or pseudo-check, e.g.
	// "directive") that produced the finding; //tfcvet:allow directives
	// suppress by this name.
	Check   string
	Message string
}

// Report records a diagnostic. The Check field defaults to the running
// analyzer's name.
func (p *Pass) Report(d Diagnostic) {
	if d.Check == "" {
		d.Check = p.Analyzer.Name
	}
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full tfcvet analyzer suite in a stable order: the four
// intra-procedural checkers followed by the call-graph-backed hotalloc
// (see callgraph.go).
func All() []*Analyzer {
	return []*Analyzer{Detrand, Simtime, Mapiter, Poolsafe, Hotalloc}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pkgPathOf returns the import path of the package a package-qualified
// identifier refers to, and the member name — e.g. time.Now yields
// ("time", "Now") — or ok=false if sel is not a qualified identifier.
func pkgPathOf(info *types.Info, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
