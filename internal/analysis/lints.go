package analysis

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/tradeoff"
)

// LintsPass is the tradeoff-hygiene lint set over the IR: tradeoffs that
// no instruction references (dead metadata the back-end would silently
// drag along), tradeoffs referenced only from code unreachable from any
// dependence or getValue root (the knob exists but no execution path can
// exercise its values), knobs whose declared range collapses to a single
// value, and function tradeoffs whose variant implementations disagree in
// signature (substituting them is unsound).
var LintsPass = &Pass{
	Name: "lints",
	Doc:  "unused/unreachable tradeoffs, degenerate value ranges, variant signature mismatches",
	run:  runLints,
}

func runLints(m *ir.Module, decls bool) []Diagnostic {
	var ds []Diagnostic

	// Which functions reference each tradeoff, and which functions any
	// execution can reach.
	refs := map[string][]string{}
	for name, f := range m.Functions {
		for _, t := range f.TradeoffRefs() {
			refs[t] = append(refs[t], name)
		}
	}
	live := reachable(m, callGraphRoots(m))

	for _, t := range m.Tradeoffs {
		fns := refs[t.Name]
		switch {
		case len(fns) == 0:
			ds = append(ds, metaDiag("lints", Warning, t.Pos, t.Name,
				"tradeoff %s is never referenced by any placeholder or type use", t.Name))
		default:
			anyLive := false
			for _, fn := range fns {
				if live[fn] {
					anyLive = true
					break
				}
			}
			if !anyLive {
				ds = append(ds, metaDiag("lints", Warning, t.Pos, t.Name,
					"tradeoff %s is referenced only from unreachable code (%s)", t.Name, describeRefs(fns)))
			}
		}
		if decls && t.Size == 1 {
			ds = append(ds, metaDiag("lints", Warning, t.Pos, t.Name,
				"tradeoff %s has a single value; its range can never be exercised by any use site", t.Name))
		}
		if t.Kind == tradeoff.Function {
			ds = append(ds, lintVariantSignatures(m, t)...)
		}
		if decls && len(t.ValueNames) > 0 {
			seen := map[string]bool{}
			for _, v := range t.ValueNames {
				if seen[v] {
					ds = append(ds, metaDiag("lints", Warning, t.Pos, t.Name,
						"tradeoff %s lists variant %s more than once", t.Name, v))
				}
				seen[v] = true
			}
		}
	}
	return ds
}

// signature is a function's inferred interface: its arity (one past the
// highest parameter index read) and whether it produces a value. The IR
// has no declared signatures, so this is the strongest congruence the
// lint can demand of a function tradeoff's interchangeable variants.
type signature struct {
	arity   int
	returns bool
}

func (s signature) String() string {
	r := "void"
	if s.returns {
		r = "value"
	}
	return fmt.Sprintf("%d params -> %s", s.arity, r)
}

// inferSignature derives a function's signature from its body.
func inferSignature(f *ir.Function) signature {
	var s signature
	for _, in := range f.Instrs {
		switch in.Op {
		case ir.Param:
			if in.Index+1 > s.arity {
				s.arity = in.Index + 1
			}
		case ir.Ret:
			s.returns = true
		}
	}
	return s
}

// lintVariantSignatures flags function tradeoffs whose variants are not
// interchangeable: the back-end substitutes any variant into the same
// call sites, so a signature disagreement is unsound, not just untidy.
func lintVariantSignatures(m *ir.Module, t ir.TradeoffMeta) []Diagnostic {
	var ds []Diagnostic
	first := -1
	var want signature
	for i, v := range t.ValueNames {
		f, ok := m.Functions[v]
		if !ok {
			continue // the verifier reports missing variants
		}
		got := inferSignature(f)
		if first < 0 {
			first, want = i, got
			continue
		}
		if got != want {
			ds = append(ds, metaDiag("lints", Error, t.Pos, t.Name,
				"function tradeoff %s variants disagree in signature: %s is (%s) but %s is (%s)",
				t.Name, t.ValueNames[first], want, v, got))
		}
	}
	return ds
}
