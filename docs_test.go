package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedIdentifiersDocumented enforces the deliverable "doc comments
// on every public item": every exported type, function, method, constant
// and variable in non-test source must carry a doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	fset := token.NewFileSet()
	var missing []string

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					missing = append(missing, pos(fset, dd.Pos(), "func "+dd.Name.Name))
				}
			case *ast.GenDecl:
				// A doc comment on the GenDecl covers grouped specs
				// (const blocks, var blocks).
				groupDoc := dd.Doc != nil
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc == nil {
							missing = append(missing, pos(fset, sp.Pos(), "type "+sp.Name.Name))
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
								missing = append(missing, pos(fset, sp.Pos(), "value "+n.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestPackagesHaveDocComments requires a package comment on every package
// (on at least one file).
func TestPackagesHaveDocComments(t *testing.T) {
	fset := token.NewFileSet()
	documented := map[string]bool{}
	seen := map[string]bool{}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		seen[dir] = true
		if file.Doc != nil {
			documented[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for dir := range seen {
		if !documented[dir] {
			missing = append(missing, dir)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("packages without package doc comments: %s", strings.Join(missing, ", "))
	}
}

// TestDocsCarryMetricCatalogue keeps the metric reference tables in
// README.md and DESIGN.md equal to the golden file internal/obs generates
// from its fact table (`make catalogue`, then paste).
func TestDocsCarryMetricCatalogue(t *testing.T) {
	want, err := os.ReadFile("internal/obs/testdata/catalogue.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), string(want)) {
			t.Errorf("%s does not carry %s verbatim", doc, "internal/obs/testdata/catalogue.golden")
		}
	}
}

func pos(fset *token.FileSet, p token.Pos, what string) string {
	position := fset.Position(p)
	return position.Filename + ":" + itoa(position.Line) + " " + what
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
