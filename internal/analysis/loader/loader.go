// Package loader parses and type-checks packages from source for the
// tfcvet analyzers, with no dependency on the go command or the module
// proxy (the build environment is fully offline). Import paths resolve
// through GOPATH-style source roots (analysistest fixtures under
// testdata/src) and — for everything else, i.e. the standard library —
// the standard library's own source importer.
//
// This is the slow-but-simple path of the analysistest harness;
// `go vet -vettool=tfcvet` instead feeds the driver gc export data
// through the vet config protocol and never touches this package.
package loader

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tfcsim/internal/analysis"
)

// Config says where import paths live on disk.
type Config struct {
	// SrcRoots are GOPATH-style roots: import path P may live at
	// <root>/P. Earlier roots shadow later ones.
	SrcRoots []string
}

// Loader memoizes type-checked packages across Load calls.
type Loader struct {
	cfg     Config
	fset    *token.FileSet
	stdlib  types.ImporterFrom
	pkgs    map[string]*analysis.Package
	loading map[string]bool
}

// New returns a Loader for the given configuration.
func New(cfg Config) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		cfg:     cfg,
		fset:    fset,
		stdlib:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*analysis.Package),
		loading: make(map[string]bool),
	}
}

// dirFor resolves an import path to a source directory, or ok=false if
// the path is not covered by the configured roots (i.e. stdlib).
func (l *Loader) dirFor(path string) (string, bool) {
	for _, root := range l.cfg.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// Load parses and type-checks the package at the given import path
// (which must resolve through the configured roots, not the stdlib).
func (l *Loader) Load(path string) (*analysis.Package, error) {
	if pkg, done := l.pkgs[path]; done {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	dir, local := l.dirFor(path)
	if !local {
		return nil, fmt.Errorf("cannot resolve %q to a source directory", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	tconf := &types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			return l.importPkg(imp, dir)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := tconf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		const maxShown = 8
		msgs := make([]string, 0, maxShown)
		for i, e := range typeErrs {
			if i == maxShown {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-maxShown))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}

	pkg := &analysis.Package{
		Path:      path,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importPkg satisfies imports encountered while type-checking: local
// roots first, then the standard library from source.
func (l *Loader) importPkg(path, fromDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, local := l.dirFor(path); local {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.stdlib.ImportFrom(path, fromDir, 0)
}

// parseDir parses the non-test Go files of one directory, with
// comments (the directive and `// want` grammars live in comments).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
