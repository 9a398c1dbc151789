package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one type-checked package as the checker consumes it —
// produced either by the loader (fixture tests) or by the
// unitchecker protocol driver (go vet -vettool).
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Check runs the analyzers over pkg and returns the surviving
// diagnostics in (file, line, column) order. It applies the framework's
// cross-cutting policy:
//
//   - diagnostics positioned in _test.go files are dropped — the
//     determinism contracts govern simulation code, not test harnesses
//     (tests may time out on wall clocks, seed throwaway RNGs, etc.);
//   - diagnostics covered by a well-formed //tfcvet:allow directive are
//     dropped;
//   - malformed directives are themselves reported (check "directive").
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{"directive": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	idx := parseDirectives(pkg.Fset, pkg.Files, known)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, pass.diagnostics...)
	}
	diags = append(diags, idx.bad...)

	// Analyzers that examine nested statements from more than one level
	// (e.g. poolsafe's branch walk) can report the same finding twice;
	// identical (pos, check, message) triples collapse to one.
	seen := make(map[Diagnostic]bool, len(diags))
	kept := diags[:0]
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		pos := pkg.Fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		if idx.suppressed(d.Check, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}
	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(kept[i].Pos), pkg.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return kept, nil
}
