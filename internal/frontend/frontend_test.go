package frontend

import (
	"strings"
	"testing"

	"repro/internal/tradeoff"
)

// fixture mirrors the paper's bodytrack example (Figures 8 and 10) in the
// extension syntax.
const fixture = `// host code before
#include <vector>

tradeoff TO_numAnnealingLayers {
    kind constant;
    values 1..10;
    default 4;
}

tradeoff TO_weightType {
    kind type;
    values half, single, double;
    default 2;
}

tradeoff TO_sqrt {
    kind function;
    values sqrt_exact, sqrt_newton2, sqrt_newton1;
    default 0;
}

statedep track {
    input Frame;
    state BodyModel;
    output Positions;
    compute updateModel uses TO_numAnnealingLayers, TO_weightType, TO_sqrt;
    compare compareModels;
}

// host code after
int main() { return 0; }
`

func TestTranslateFixture(t *testing.T) {
	out, err := Translate(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tradeoffs) != 3 {
		t.Fatalf("tradeoffs: %d", len(out.Tradeoffs))
	}
	if len(out.Deps) != 1 {
		t.Fatalf("deps: %d", len(out.Deps))
	}
	d := out.Deps[0]
	if d.Name != "track" || d.Compute != "updateModel" || d.Compare != "compareModels" {
		t.Fatalf("dep: %+v", d)
	}
	if len(d.Uses) != 3 || d.Uses[0] != "TO_numAnnealingLayers" {
		t.Fatalf("uses: %v", d.Uses)
	}
}

func TestTradeoffFields(t *testing.T) {
	out, err := Translate(fixture)
	if err != nil {
		t.Fatal(err)
	}
	layers := out.Tradeoffs[0]
	if layers.Kind != tradeoff.Constant || layers.Lo != 1 || layers.Hi != 10 || layers.Default != 4 {
		t.Fatalf("layers: %+v", layers)
	}
	if layers.Size != 10 || layers.ValueNames != nil {
		t.Fatalf("layers size %d, value names %v", layers.Size, layers.ValueNames)
	}
	wt := out.Tradeoffs[1]
	if wt.Kind != tradeoff.Type || wt.Size != 3 || len(wt.ValueNames) != 3 || wt.ValueNames[2] != "double" {
		t.Fatalf("weight type: %+v", wt)
	}
	// IDs assigned in order starting at 42 (Figure 11's T_42).
	if layers.ID != 42 || wt.ID != 43 || out.Tradeoffs[2].ID != 44 {
		t.Fatalf("ids: %d %d %d", layers.ID, wt.ID, out.Tradeoffs[2].ID)
	}
}

func TestHostCodePassesThrough(t *testing.T) {
	out, err := Translate(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"// host code before", "#include <vector>", "int main() { return 0; }"} {
		if !strings.Contains(out.StandardSource, want) {
			t.Fatalf("standard source lost %q", want)
		}
	}
	// The extension keywords must be gone.
	if strings.Contains(out.StandardSource, "tradeoff TO_") || strings.Contains(out.StandardSource, "statedep ") {
		t.Fatal("extension blocks leaked into standard source")
	}
}

func TestGeneratedHeaderMatchesFigure11(t *testing.T) {
	out, err := Translate(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#pragma once",
		"int64_t T_42(int64_t p) { return p; }",
		"auto T_42_getValue(int64_t i) { return i + 1; }",
		"int64_t T_42_size() { return 10; }",
		"int64_t T_42_getDefaultIndex() { return 4; }",
		`"T_42_getValue T_42_size T_42_getDefaultIndex T_42"`,
	} {
		if !strings.Contains(out.Header, want) {
			t.Fatalf("header missing %q\n%s", want, out.Header)
		}
	}
}

func TestLoweredDepInstantiation(t *testing.T) {
	out, err := Translate(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"StateDependence<Frame, BodyModel, Positions> track",
		"track.start(); track.join();",
		"#define TO_numAnnealingLayers T_42(42)",
	} {
		if !strings.Contains(out.StandardSource, want) {
			t.Fatalf("standard source missing %q", want)
		}
	}
}

func TestGeneratedLOCPositive(t *testing.T) {
	out, err := Translate(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if out.GeneratedLOC <= 0 {
		t.Fatalf("generated LOC: %d", out.GeneratedLOC)
	}
}

func TestErrors(t *testing.T) {
	const dep = "statedep d {\ninput I;\nstate S;\noutput O;\n"
	cases := []struct {
		name, src, wantSub string
	}{
		{"unterminated", "tradeoff X {\nkind constant;", "unterminated"},
		{"missing semicolon", "tradeoff X {\nkind constant\n}", "';'"},
		{"bad kind", "tradeoff X {\nkind banana;\nvalues 1..2;\ndefault 0;\n}", "unknown kind"},
		{"bad range", "tradeoff X {\nkind constant;\nvalues 5..1;\ndefault 0;\n}", "bad range"},
		{"missing kind", "tradeoff X {\nvalues 1..2;\ndefault 0;\n}", "missing kind"},
		{"default out of range", "tradeoff X {\nkind constant;\nvalues 1..2;\ndefault 5;\n}", "default index"},
		{"constant with names", "tradeoff X {\nkind constant;\nvalues a, b;\ndefault 0;\n}", "range"},
		{"type with range", "tradeoff X {\nkind type;\nvalues 1..2;\ndefault 0;\n}", "value names"},
		{"no name", "tradeoff {\nkind constant;\nvalues 1..2;\ndefault 0;\n}", "name"},
		{"dep missing input", "statedep d {\nstate S;\noutput O;\ncompute f;\n}", "missing input"},
		{"dep unknown field", "statedep d {\nbanana x;\n}", "unknown statedep field"},
		{"undeclared use", "statedep d {\ninput I;\nstate S;\noutput O;\ncompute f uses TO_missing;\n}", "undeclared tradeoff"},
		// Declared names are spliced into generated identifiers.
		{"tradeoff with a dash", "tradeoff a-b {\nkind constant;\nvalues 1..2;\ndefault 0;\n}", `line 1: tradeoff name "a-b" is not an identifier`},
		{"tradeoff with a space", "\ntradeoff TO a {\nkind constant;\nvalues 1..2;\ndefault 0;\n}", `line 2: tradeoff name "TO a" is not an identifier`},
		{"tradeoff with a brace", "tradeoff x{y {\nkind type;\nvalues a, b;\ndefault 0;\n}", `line 1: tradeoff name "x{y" is not an identifier`},
		{"tradeoff with a leading digit", "tradeoff 9lives {\nkind constant;\nvalues 1..2;\ndefault 0;\n}", `line 1: tradeoff name "9lives" is not an identifier`},
		{"statedep with a space", "statedep my dep {\ninput I;\nstate S;\noutput O;\ncompute f;\n}", `line 1: statedep name "my dep" is not an identifier`},
		{"statedep with a template", "statedep d<int> {\ninput I;\nstate S;\noutput O;\ncompute f;\n}", `line 1: statedep name "d<int>" is not an identifier`},
		{"compute with a space", dep + "compute my update;\n}", `line 5: compute name "my update" is not an identifier`},
		{"compute with a dash", dep + "compute up-date uses T;\n}", `line 5: compute name "up-date" is not an identifier`},
		{"compute named uses", dep + "compute uses T;\n}", `line 5: compute name "uses T" is not an identifier`},
		{"compare with a call", dep + "compute f;\ncompare cmp();\n}", `line 6: compare name "cmp()" is not an identifier`},
		{"accept other than construction", dep + "compute f;\naccept anything;\n}", `line 6: bad accept "anything" (want construction)`},
		{"compare and construction", dep + "compute f;\ncompare cmp;\naccept construction;\n}", `line 1: statedep d: declares both a compare method and acceptance by construction`},
	}
	for _, c := range cases {
		if _, err := Translate(c.src); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("%s: error %v does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestErrorCarriesLine(t *testing.T) {
	_, err := Translate("x\ny\ntradeoff X {\nkind banana;\n}")
	fe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type: %T", err)
	}
	if fe.Line != 4 {
		t.Fatalf("error line: %d", fe.Line)
	}
}

func TestCommentsAndBlankLinesInBlocks(t *testing.T) {
	src := "tradeoff X {\n// a comment\n\nkind constant;\nvalues 1..3;\ndefault 1;\n}"
	out, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tradeoffs[0].Size != 3 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestDepWithoutCompare(t *testing.T) {
	src := "statedep d {\ninput I;\nstate S;\noutput O;\ncompute f;\n}"
	out, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Deps[0].Compare != "" {
		t.Fatal("compare should be optional")
	}
}

func TestDepAcceptsByConstruction(t *testing.T) {
	out, err := Translate("statedep d {\ninput I;\nstate S;\noutput O;\ncompute f;\naccept construction;\n}")
	if err != nil {
		t.Fatal(err)
	}
	if d := out.Deps[0]; !d.ByConstruction || d.Compare != "" {
		t.Fatalf("accept construction parsed as %+v", d.DepMeta)
	}
}

// TestHostTypesAndValueNamesStayOpaque pins the other side of the name
// refusals in TestErrors: host types (templates included) and value names
// are not spliced into generated identifiers, so they stay opaque text.
func TestHostTypesAndValueNamesStayOpaque(t *testing.T) {
	src := "tradeoff T {\nkind type;\nvalues float 16, std::float32_t;\ndefault 0;\n}\n" +
		"statedep d {\ninput std::vector<int>;\nstate Map<K, V>;\noutput O*;\ncompute f uses T;\ncompare cmp;\n}"
	if _, err := Translate(src); err != nil {
		t.Fatalf("opaque host types or value names refused: %v", err)
	}
}
