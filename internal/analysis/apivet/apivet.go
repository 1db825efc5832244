// Package apivet holds the statsvet analyzers for runtime-API misuse in
// user Go code — the mistakes that compile fine, run fine, and quietly
// disable or corrupt speculation. Four analyzers ship:
//
//   - negopts: a negative GroupSize/Window/RedoMax/Rollback/Workers in an
//     engine options literal. The engine clamps negatives to their floor,
//     so `RedoMax: -1` silently means "never redo" — almost always a bug.
//   - droppedstats: discarding a state dependence's results — calling
//     RunSTATS, Run or Join as a bare statement (dropping the outputs and
//     the speculation Stats the caller needs to notice aborts), or Start
//     as a bare statement (dropping its error).
//   - specclosure: a compute or auxiliary closure that assigns to a
//     variable captured from the enclosing scope. Speculated closures run
//     concurrently and may be re-executed or squashed; state must flow
//     through the state parameter, not shared captures.
//   - reserveops: misuse inside a ReserveOps literal — a Footprint that
//     returns a slice captured from the enclosing scope (footprints are
//     held across the round, so invocations would alias one slice), a
//     constant slot index outside [0, NumSlots), or a Merge that mutates
//     its src argument (the committed winner's state).
//
// Findings are analysis.Diagnostic records, Pass naming the analyzer; all
// four report Error.
//
// The analyzers are deliberately syntactic (stdlib go/ast only, no
// golang.org/x/tools dependency, which keeps them usable in hermetic
// builds) and tuned for zero false positives over this repository:
// negopts only fires on literal negative constants, droppedstats and
// specclosure only on receivers provably created by the STATS
// constructors in the same function.
package apivet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// Analyzer is one Go-source check.
type Analyzer struct {
	// Name keys the analyzer in diagnostics (their Pass).
	Name string
	// Doc is the one-line description.
	Doc string
	// Run inspects one parsed file.
	Run func(fset *token.FileSet, file *ast.File) []analysis.Diagnostic
}

// Analyzers returns the runtime-API analyzers in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NegOpts, DroppedStats, SpecClosure, ReserveOpsLit}
}

// analyzeFile runs every analyzer over one parsed file.
func analyzeFile(fset *token.FileSet, file *ast.File) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, a := range Analyzers() {
		out = append(out, a.Run(fset, file)...)
	}
	return out
}

// AnalyzePaths parses and analyzes the given paths: a .go file is
// analyzed directly; a directory is walked recursively for non-test .go
// files (skipping testdata and hidden directories). Findings come back in
// analysis.Sort order.
func AnalyzePaths(paths []string) ([]analysis.Diagnostic, error) {
	fset := token.NewFileSet()
	var out []analysis.Diagnostic
	analyze := func(path string) error {
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		out = append(out, analyzeFile(fset, file)...)
		return nil
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if err := analyze(p); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && len(d.Name()) > 1) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			return analyze(path)
		})
		if err != nil {
			return nil, err
		}
	}
	analysis.Sort(out)
	return out, nil
}

// diag builds a positioned finding of the named analyzer.
func diag(fset *token.FileSet, pos token.Pos, sev analysis.Severity, analyzer, format string, args ...any) analysis.Diagnostic {
	p := fset.Position(pos)
	return analysis.Diagnostic{File: p.Filename, Pos: ir.Pos{Line: p.Line, Col: p.Column}, Pass: analyzer,
		Severity: sev, Msg: fmt.Sprintf(format, args...)}
}
