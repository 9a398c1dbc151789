// Command tfcvet is the repository's custom static-analysis gate: it
// machine-checks the determinism, sim-time, pool-lifetime, shard-safety,
// zero-alloc, and probe-purity contracts every experiment result rests
// on (see DESIGN.md, "Determinism & pooling contracts"). It runs eight
// analyzers — the intra-procedural detrand, simtime, mapiter, poolsafe
// and the call-graph-backed shardsafe, rankreq, hotalloc, probepure — as a
// go vet tool (scripts/vet.sh builds it and runs it so):
//
//	go vet -vettool=$(which tfcvet) ./...
//
// The go command hands tfcvet one JSON config per package with paths to
// gc export data, the same protocol
// golang.org/x/tools/go/analysis/unitchecker speaks (reimplemented here
// on the standard library because this build environment is offline and
// cannot fetch x/tools).
//
// Findings are suppressed case-by-case with
//
//	//tfcvet:allow <check>[,<check>] — <one-line justification>
//
// on (or directly above) the offending line. Exit status: 0 clean,
// 1 operational error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tfcsim/internal/analysis"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "-V":
			// The go command fingerprints vet tools via -V=full and
			// caches per-package results under that identity; hashing
			// our own binary makes every rebuild a cache miss, so stale
			// analyzers can never hide fresh diagnostics.
			fmt.Printf("%s version tfcvet-1.0.0-%s\n", progName(), selfHash())
			return
		case "-flags":
			// go vet asks which analyzer flags the tool accepts.
			fmt.Println("[]")
			return
		case "help", "-h", "-help", "--help":
			usage()
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheckerRun(args[0]))
	}
	usage()
	os.Exit(1)
}

func usage() {
	fmt.Printf("usage: go vet -vettool=$(which tfcvet) [packages]\n\nanalyzers:\n")
	for _, a := range analysis.All() {
		fmt.Printf("  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("\nsuppress a finding with `//tfcvet:allow <check> — <justification>`\n")
}

func progName() string { return filepath.Base(os.Args[0]) }

// selfHash returns a short content hash of the running binary.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// printDiags renders diagnostics in the conventional file:line:col form
// go vet users expect, tagged with the originating check.
func printDiags(pkg *analysis.Package, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [tfcvet:%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Check)
	}
}
