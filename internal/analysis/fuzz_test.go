package analysis

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/midend"
)

// FuzzVerify drives randomly generated frontend programs through the
// mid-end and asserts the analysis contract on whatever comes out:
//
//  1. the passes never panic, whatever the program shape;
//  2. the pipeline never produces a module the verifier rejects, with
//     one carve-out: footprints errors are user bugs expressible in
//     grammatical source (a declared reservation that under-approximates
//     the touches), so only non-footprints Check errors are compiler
//     bugs;
//  3. every verifier-accepted module is accepted by the back-end
//     (Compile + Validate), i.e. the static gate is not weaker than the
//     layer behind it;
//  4. the footprint inference satisfies its own soundness invariant on
//     every pipeline output: each inferred access is covered by the
//     footprint set inferred for its dependence.
//
// The raw fuzz bytes are also tried directly as a JSON IR document, so
// the verifier is additionally exercised on arbitrary well-typed but
// unconstrained modules the pipeline could never emit.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x55, 0xaa, 0x12, 0x34, 0x56, 0x78})
	f.Add([]byte(`{"functions":[{"name":"f","instrs":[{"op":"ret","args":[0]}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary modules via the JSON codec: decode errors are fine,
		// but a decodable module must analyze without panicking.
		if m, err := ir.DecodeJSON(bytes.NewReader(data)); err == nil {
			_ = Analyze(m)
		}

		src := genSource(data)
		fo, err := frontend.Translate(src)
		if err != nil {
			return // the generator strayed outside the grammar
		}
		m, err := midend.Lower(fo)
		if err != nil {
			return
		}
		ds := AnalyzeProgram(fo, m)
		userRejected := false
		for _, d := range Analyze(m) {
			if d.Severity != Error {
				continue
			}
			if d.Pass == "footprints" {
				userRejected = true // a lying declared footprint, legal source
				continue
			}
			t.Fatalf("pipeline output fails the verifier:\nsource:\n%s\nerror: %v\nall findings: %v", src, d, ds)
		}
		// The footprint inference must hold its own soundness invariant on
		// every pipeline output: each inferred access is covered by the
		// inferred footprint set it belongs to (and the pass itself ran
		// without panicking inside AnalyzeProgram above).
		for _, fp := range InferFootprints(m) {
			for _, acc := range append(append([]Access(nil), fp.Reads...), fp.Writes...) {
				if !covered(fp.Exprs(), acc.Expr) {
					t.Fatalf("inferred footprint does not cover its own access %s:\nsource:\n%s\nfootprint: %+v", acc.Expr.String(), src, fp)
				}
			}
		}
		if userRejected {
			return // the vet gate rejected the module; backend acceptance is moot
		}
		prog, err := backend.Compile(m, nil)
		if err != nil {
			t.Fatalf("verifier-accepted module rejected by backend.Compile:\nsource:\n%s\nerror: %v", src, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("verifier-accepted module rejected by Program.Validate:\nsource:\n%s\nerror: %v", src, err)
		}
	})
}

// genSource derives a structured SDI/TI program from fuzz bytes: a byte
// cursor picks tradeoff kinds, value ranges, dependence shapes and
// optional clauses, so most inputs map to grammatical programs while the
// raw-bytes path above keeps covering the rejection paths.
func genSource(data []byte) string {
	cur := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[cur%len(data)]
		cur++
		return int(b)
	}

	var b strings.Builder
	b.WriteString("#include \"fuzz.h\"\n\n")

	nTradeoffs := 1 + next()%3
	names := make([]string, 0, nTradeoffs)
	for i := 0; i < nTradeoffs; i++ {
		name := fmt.Sprintf("TO_f%d", i)
		names = append(names, name)
		fmt.Fprintf(&b, "tradeoff %s {\n", name)
		switch next() % 3 {
		case 0:
			lo := next() % 5
			size := 1 + next()%6
			fmt.Fprintf(&b, "    kind constant;\n    values %d..%d;\n", lo, lo+size-1)
			fmt.Fprintf(&b, "    default %d;\n", next()%size)
		case 1:
			n := 1 + next()%3
			vals := make([]string, n)
			for j := range vals {
				vals[j] = fmt.Sprintf("ty%d_%d", i, j)
			}
			fmt.Fprintf(&b, "    kind type;\n    values %s;\n", strings.Join(vals, ", "))
			fmt.Fprintf(&b, "    default %d;\n", next()%n)
		default:
			n := 1 + next()%3
			vals := make([]string, n)
			for j := range vals {
				vals[j] = fmt.Sprintf("impl%d_%d", i, j)
			}
			fmt.Fprintf(&b, "    kind function;\n    values %s;\n", strings.Join(vals, ", "))
			fmt.Fprintf(&b, "    default %d;\n", next()%n)
		}
		b.WriteString("}\n\n")
	}

	nDeps := 1 + next()%2
	for i := 0; i < nDeps; i++ {
		fmt.Fprintf(&b, "statedep dep%d {\n", i)
		fmt.Fprintf(&b, "    input In%d;\n    state St%d;\n    output Out%d;\n", i, i, i)
		var uses []string
		for _, n := range names {
			if next()%2 == 1 {
				uses = append(uses, n)
			}
		}
		if len(uses) > 0 {
			fmt.Fprintf(&b, "    compute comp%d uses %s;\n", i, strings.Join(uses, ", "))
		} else {
			fmt.Fprintf(&b, "    compute comp%d;\n", i)
		}
		if next()%2 == 1 {
			fmt.Fprintf(&b, "    compare cmp%d;\n", i)
		}
		if next()%2 == 1 {
			fmt.Fprintf(&b, "    window %d;\n", 1+next()%5)
		}
		if next()%2 == 1 {
			k := 2 + next()%5
			idx := func() string {
				switch next() % 4 {
				case 0:
					return fmt.Sprintf("%d", next()%(k+2)) // sometimes out of range
				case 1:
					return fmt.Sprintf("sl%d", i)
				case 2:
					return fmt.Sprintf("%d*sl%d", 2+next()%2, i)
				default:
					return fmt.Sprintf("sl%d+%d", i, 1+next()%3)
				}
			}
			fmt.Fprintf(&b, "    slots %d;\n", k)
			for j := 1 + next()%2; j > 0; j-- {
				fmt.Fprintf(&b, "    reserve %s;\n", idx())
			}
			for j := next() % 3; j > 0; j-- {
				fmt.Fprintf(&b, "    touches %s;\n", idx())
			}
		}
		b.WriteString("}\n\n")
	}

	b.WriteString("int main() { return 0; }\n")
	return b.String()
}
