package frontend

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/tradeoff"
)

// renderCanonical rebuilds extension source from parsed declarations —
// the inverse direction FuzzParse uses to check the parser round-trips:
// whatever Translate accepts, its canonical re-rendering must parse back
// to the same declarations.
func renderCanonical(out *Output) string {
	var b strings.Builder
	for _, t := range out.Tradeoffs {
		fmt.Fprintf(&b, "tradeoff %s {\n", t.Name)
		if t.Kind == tradeoff.Constant {
			fmt.Fprintf(&b, "kind constant;\nvalues %d..%d;\n", t.Lo, t.Hi)
		} else {
			fmt.Fprintf(&b, "kind %s;\nvalues %s;\n", t.Kind, strings.Join(t.ValueNames, ", "))
		}
		fmt.Fprintf(&b, "default %d;\n}\n", t.Default)
	}
	for _, d := range out.Deps {
		fmt.Fprintf(&b, "statedep %s {\n", d.Name)
		fmt.Fprintf(&b, "input %s;\nstate %s;\noutput %s;\n", d.Input, d.State, d.Output)
		if len(d.Uses) > 0 {
			fmt.Fprintf(&b, "compute %s uses %s;\n", d.Compute, strings.Join(d.Uses, ", "))
		} else {
			fmt.Fprintf(&b, "compute %s;\n", d.Compute)
		}
		if d.Compare != "" {
			fmt.Fprintf(&b, "compare %s;\n", d.Compare)
		}
		if d.ByConstruction {
			b.WriteString("accept construction;\n")
		}
		if d.Window > 0 {
			fmt.Fprintf(&b, "window %d;\n", d.Window)
		}
		if d.Slots > 0 {
			fmt.Fprintf(&b, "slots %d;\n", d.Slots)
		}
		for _, e := range d.Reserve {
			fmt.Fprintf(&b, "reserve %s;\n", e)
		}
		for _, e := range d.Touches {
			fmt.Fprintf(&b, "touches %s;\n", e)
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// stripLines zeroes the source positions, which legitimately differ
// between an original and its canonical re-rendering.
func stripLines(out *Output) ([]TradeoffDecl, []DepDecl) {
	ts := make([]TradeoffDecl, len(out.Tradeoffs))
	for i, t := range out.Tradeoffs {
		t.Pos = ir.Pos{}
		ts[i] = t
	}
	ds := make([]DepDecl, len(out.Deps))
	for i, d := range out.Deps {
		d.Pos = ir.Pos{}
		d.Reserve = stripIndexLines(d.Reserve)
		d.Touches = stripIndexLines(d.Touches)
		ds[i] = d
	}
	return ts, ds
}

// stripIndexLines zeroes the per-entry source positions of reserve/touches
// declarations (copying the slice, so the original Output is untouched).
func stripIndexLines(es []ir.IndexExpr) []ir.IndexExpr {
	if es == nil {
		return nil
	}
	out := make([]ir.IndexExpr, len(es))
	for i, e := range es {
		e.Pos = ir.Pos{}
		out[i] = e
	}
	return out
}

// FuzzParse fuzzes the tradeoff/statedep block parser with a stronger
// property than FuzzTranslate's no-panic checks: every accepted input
// must round-trip. The parsed declarations are re-rendered to canonical
// extension source, re-parsed, and compared — so the parser can neither
// lose information nor accept something its own output grammar cannot
// express. Run with `make fuzz` (or `go test -fuzz=FuzzParse`); under
// plain `go test` the seed corpus runs.
func FuzzParse(f *testing.F) {
	src, err := os.ReadFile("../workload/bodytrack/bodytrack.stats")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(src))
	seeds := []string{
		"tradeoff TO_layers {\n    kind constant;\n    values 1..5;\n    default 3;\n}\n",
		"tradeoff TO_prec {\n    kind type;\n    values half, single, double;\n    default 1;\n}\n",
		"tradeoff TO_impl {\n    kind function;\n    values fast_path, slow_path;\n    default 0;\n}\n",
		"statedep track {\n    input Frame;\n    state Model;\n    output Pose;\n    compute update;\n    compare cmp;\n}\n",
		"statedep price {\n    input Block;\n    state Sum;\n    output Price;\n    compute step;\n    accept construction;\n}\n",
		"tradeoff A {\n kind constant;\n values 0..0;\n default 0;\n}\nstatedep d {\n input I;\n state S;\n output O;\n compute f uses A;\n}\n",
		"host line\ntradeoff T {\n kind constant;\n values 2..9;\n default 7;\n}\nmore host\n",
		"tradeoff T {\n kind constant;\n values 1..3;\n default 0;\n kind constant;\n}\n", // duplicate field
		"statedep d {\n input a;b;\n state S;\n output O;\n compute f;\n}\n",              // ';' inside a value
		"tradeoff x{y {\n kind type;\n values a b, c;\n default 1;\n}\n",                  // a name that is no identifier: refused
		"statedep d {\n input I;\n state S;\n output O;\n compute f uses A uses B;\n}\n",
		"tradeoff broken {\n kind banana;\n}\n",
		"statedep d {\n compute f;\n}\n",
		"statedep d {\n input I;\n state S;\n output O;\n compute f;\n slots 4;\n reserve shard;\n touches shard;\n}\n",
		"statedep d {\n input I;\n state S;\n output O;\n compute f;\n slots 8;\n reserve 2*blk+1;\n touches 2*blk;\n touches 3;\n}\n",
		"statedep d {\n input I;\n state S;\n output O;\n compute f;\n reserve x;\n}\n", // reserve without slots
		"statedep d {\n input I;\n state S;\n output O;\n compute f;\n slots 0;\n}\n",   // slots without reserve
		"statedep d {\n input I;\n state S;\n output O;\n compute f;\n slots 4;\n reserve 1*x+0;\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		out, err := Translate(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "frontend: line ") {
				t.Fatalf("unpositioned error: %v", err)
			}
			return
		}
		if len(out.Tradeoffs) == 0 && len(out.Deps) == 0 {
			return // pure host code: nothing to round-trip
		}
		canon := renderCanonical(out)
		again, err := Translate(canon)
		if err != nil {
			t.Fatalf("canonical re-rendering rejected: %v\ncanonical:\n%s", err, canon)
		}
		ts1, ds1 := stripLines(out)
		ts2, ds2 := stripLines(again)
		if !reflect.DeepEqual(ts1, ts2) {
			t.Fatalf("tradeoffs did not round-trip:\n got %+v\nwant %+v\ncanonical:\n%s", ts2, ts1, canon)
		}
		if !reflect.DeepEqual(ds1, ds2) {
			t.Fatalf("deps did not round-trip:\n got %+v\nwant %+v\ncanonical:\n%s", ds2, ds1, canon)
		}
	})
}
