package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
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

// TestDocsNameRealTargetsAndCommands keeps the prose honest about the
// tooling: every `make <target>` in README.md, DESIGN.md and the verify
// skill is a Makefile target, the cmd/ entries of README's layout block are
// exactly the directories under cmd/, and every back-quoted internal/ path
// and .go file name in README.md and DESIGN.md exists — a path as that
// directory or file (a trailing .Symbol, * or … aside), a bare file name
// somewhere in the tree. A back-quoted pkg.Symbol or pkg.Type.Member whose
// pkg is a package directory under internal/ (or stats) must resolve there:
// Symbol to a top-level declaration (a test the prose cites included) or to
// a method or field of some type, Member to a method or field of Type — so
// a deleted API cannot stay behind in the prose.
func TestDocsNameRealTargetsAndCommands(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z-]*):`).FindAllStringSubmatch(read("Makefile"), -1) {
		targets[m[1]] = true
	}
	mention := regexp.MustCompile("(?m)(?:`|^|of )make\\s+([a-z][a-z-]*)")
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		for _, m := range mention.FindAllStringSubmatch(read(doc), -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which is not a Makefile target", doc, m[1])
			}
		}
	}

	goFiles := map[string]bool{}                   // base names of the tree's .go files
	pkgDirs := map[string]string{"stats": "stats"} // package name -> its directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			goFiles[d.Name()] = true
			if dir := filepath.Dir(path); strings.HasPrefix(dir, "internal/") {
				pkgDirs[filepath.Base(dir)] = dir
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	quoted := regexp.MustCompile("`[^`\n]+`")
	internalPath := regexp.MustCompile(`\binternal/[\w/.-]+`)
	goFile := regexp.MustCompile(`[\w/.-]*\w\.go\b`)
	symbol := regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	declared := map[string]map[string]map[string]bool{} // directory -> what packageDecls found there
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, span := range quoted.FindAllString(read(doc), -1) {
			for _, m := range symbol.FindAllStringSubmatch(span, -1) {
				dir, ok := pkgDirs[m[1]]
				if !ok {
					continue
				}
				if declared[dir] == nil {
					declared[dir] = packageDecls(t, dir)
				}
				members, ok := declared[dir][m[2]]
				if m[3] == "" {
					ok = ok || declared[dir][""][m[2]]
				} else {
					ok = members[m[3]]
				}
				if !ok {
					t.Errorf("%s names %s in %s, which %s does not declare", doc, strings.TrimLeft(m[0], "` ("), span, dir)
				}
			}
			for _, p := range internalPath.FindAllString(span, -1) {
				p = strings.TrimRight(p, "./-")
				// internal/core.Options names a symbol of the package.
				pkg, _, _ := strings.Cut(p, ".")
				if !exists(p) && !exists(pkg) {
					t.Errorf("%s names %s in %s, which does not exist", doc, p, span)
				}
			}
			for _, f := range goFile.FindAllString(span, -1) {
				f = strings.TrimPrefix(f, "./")
				if strings.HasPrefix(f, "internal/") {
					continue // checked as a path above
				}
				if strings.Contains(f, "/") && !exists(f) || !goFiles[filepath.Base(f)] {
					t.Errorf("%s names %s in %s, which does not exist", doc, f, span)
				}
			}
		}
	}

	layout := read("README.md")
	_, layout, _ = strings.Cut(layout, "\ncmd/\n")
	layout, _, _ = strings.Cut(layout, "\nexamples/")
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  ([a-z]+)`).FindAllStringSubmatch(layout, -1) {
		listed[m[1]] = true
		if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
			t.Errorf("README's layout lists cmd/%s, which is not a directory", m[1])
		}
	}
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !listed[d.Name()] {
			t.Errorf("cmd/%s is missing from README's layout block", d.Name())
		}
	}
}

// TestDocsNameRealExperimentsAndBenchmarks holds the prose to the
// experiment list and the tree: every `statsexp -exp <id>` in README.md,
// DESIGN.md, EXPERIMENTS.md, the Makefile and the verify skill names an entry
// of harness.Experiments (or all), and every back-quoted Benchmark name there
// is a Benchmark function somewhere in the tree. CHANGES.md and docs/compare/
// are history and are not checked.
func TestDocsNameRealExperimentsAndBenchmarks(t *testing.T) {
	ids := map[string]bool{"all": true}
	for _, x := range harness.Experiments {
		ids[x.ID] = true
	}
	benches := map[string]bool{}
	declared := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declared.FindAllStringSubmatch(string(src), -1) {
			benches[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := regexp.MustCompile(`statsexp\s+-exp\s+(\w+)`)
	quoted := regexp.MustCompile("`[^`\n]+`")
	bench := regexp.MustCompile(`\bBenchmark\w+`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range exp.FindAllStringSubmatch(string(text), -1) {
			if !ids[m[1]] {
				t.Errorf("%s names `statsexp -exp %s`, which is no entry of harness.Experiments", doc, m[1])
			}
		}
		for _, span := range quoted.FindAllString(string(text), -1) {
			for _, name := range bench.FindAllString(span, -1) {
				if !benches[name] {
					t.Errorf("%s names %s in %s, which no _test.go file declares", doc, name, span)
				}
			}
		}
	}
}

// TestDocsNameStatsExports holds the public facade's prose to the facade:
// every back-quoted stats.Name in README.md and DESIGN.md names an exported
// top-level identifier of package stats's non-test source, what a user's
// program can write after importing it.
func TestDocsNameStatsExports(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), "stats", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	add := func(id *ast.Ident) { exported[id.Name] = exported[id.Name] || id.IsExported() }
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch dd := decl.(type) {
				case *ast.FuncDecl:
					if dd.Recv == nil {
						add(dd.Name)
					}
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							add(sp.Name)
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								add(n)
							}
						}
					}
				}
			}
		}
	}
	quoted := regexp.MustCompile("`[^`\n]+`")
	name := regexp.MustCompile(`(?:^|[^\w./])stats\.(\w+)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range quoted.FindAllString(string(text), -1) {
			for _, m := range name.FindAllStringSubmatch(span, -1) {
				if !exported[m[1]] {
					t.Errorf("%s names stats.%s in %s, which is not an exported identifier of package stats", doc, m[1], span)
				}
			}
		}
	}
}

// packageDecls parses the Go files of dir (its tests too: the prose cites
// them) and returns its top-level names, each with the methods and fields
// (interface methods included) that a Type.Member in the docs may name;
// the entry "" holds every member of every type, for a bare pkg.Method.
func packageDecls(t *testing.T, dir string) map[string]map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{"": {}}
	add := func(name, member string) {
		if decls[name] == nil {
			decls[name] = map[string]bool{}
		}
		if member != "" {
			decls[name][member] = true
			decls[""][member] = true
		}
	}
	fields := func(name string, list *ast.FieldList) {
		for _, f := range list.List {
			for _, n := range f.Names {
				add(name, n.Name)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch dd := decl.(type) {
				case *ast.FuncDecl:
					if dd.Recv == nil {
						add(dd.Name.Name, "")
						continue
					}
					recv := dd.Recv.List[0].Type // T, *T, *T[P] or *T[P, Q]
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch generic := recv.(type) {
					case *ast.IndexExpr:
						recv = generic.X
					case *ast.IndexListExpr:
						recv = generic.X
					}
					add(recv.(*ast.Ident).Name, dd.Name.Name)
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							add(sp.Name.Name, "")
							switch tt := sp.Type.(type) {
							case *ast.StructType:
								fields(sp.Name.Name, tt.Fields)
							case *ast.InterfaceType:
								fields(sp.Name.Name, tt.Methods)
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								add(n.Name, "")
							}
						}
					}
				}
			}
		}
	}
	return decls
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
