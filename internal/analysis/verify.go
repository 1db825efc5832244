package analysis

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/tradeoff"
)

// VerifyPass is the IR verifier: structural well-formedness of every
// function (operand arity per opcode, def-before-use, field requirements),
// call-graph consistency (every callee and getValue function resolves and
// getValue stays inside the evaluable subset), metadata integrity
// (tradeoff and dependence tables), and clone/original congruence for the
// mid-end's deep-cloned auxiliary code and its bottom-up tradeoff clones.
var VerifyPass = &Pass{
	Name: "verify",
	Doc:  "IR well-formedness, def-before-use, call-graph and clone congruence",
	run:  runVerify,
}

// evalOps is the opcode subset the IR interpreter supports; getValue
// functions must stay inside it because the back-end executes them.
var evalOps = map[ir.Opcode]bool{
	ir.Const: true, ir.Param: true, ir.Add: true, ir.Mul: true, ir.Ret: true,
}

func runVerify(m *ir.Module, decls bool) []Diagnostic {
	var ds []Diagnostic

	tradeoffAt := map[string]int{}
	for i, t := range m.Tradeoffs {
		if prev, dup := tradeoffAt[t.Name]; dup {
			if decls {
				ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
					"tradeoff %s declared twice (rows %d and %d)", t.Name, prev, i))
			}
			continue
		}
		tradeoffAt[t.Name] = i
	}

	for name, f := range m.Functions {
		if f == nil {
			ds = append(ds, metaDiag("verify", Error, ir.Pos{}, name, "function table entry %s is nil", name))
			continue
		}
		if f.Name != name {
			ds = append(ds, metaDiag("verify", Error, ir.Pos{}, name,
				"function table key %s does not match function name %s", name, f.Name))
		}
		ds = append(ds, verifyFunction(m, f, tradeoffAt)...)
	}

	ds = append(ds, verifyTradeoffs(m)...)
	ds = append(ds, verifyDeps(m, decls)...)
	return ds
}

// verifyFunction checks one function's instructions: defined opcodes,
// per-opcode operand arity and required fields, def-before-use (operands
// must name strictly earlier instructions), resolvable callees and
// tradeoff references, and unreachable code after a return.
func verifyFunction(m *ir.Module, f *ir.Function, tradeoffAt map[string]int) []Diagnostic {
	var ds []Diagnostic
	retAt := -1
	for i, in := range f.Instrs {
		if !in.Op.Valid() {
			ds = append(ds, errAt("verify", f, i, "", "undefined opcode %d", int(in.Op)))
			continue
		}

		// Operand arity per opcode, and def-before-use for every operand.
		wantArgs, checkArity := map[ir.Opcode]int{
			ir.Const: 0, ir.Param: 0, ir.Add: 2, ir.Mul: 2, ir.Ret: 1,
			ir.Call: 0, ir.Placeholder: 0, ir.TypeUse: 0,
			ir.StateRead: 0, ir.InputRead: 0, ir.InputField: 0,
			ir.StateReadIdx: 1, ir.StateWriteIdx: 1,
		}[in.Op], in.Op != ir.Extern && in.Op != ir.StateWrite
		if checkArity && len(in.Args) != wantArgs {
			ds = append(ds, errAt("verify", f, i, "",
				"%s takes %d operand(s), got %d", in.Op, wantArgs, len(in.Args)))
		}
		for _, a := range in.Args {
			if a < 0 || a >= i {
				ds = append(ds, errAt("verify", f, i, "",
					"%s operand %d is not defined before use (must be in [0,%d))", in.Op, a, i))
			}
		}

		switch in.Op {
		case ir.Param:
			if in.Index < 0 {
				ds = append(ds, errAt("verify", f, i, "", "param index %d is negative", in.Index))
			}
		case ir.InputRead:
			if in.Index < 0 {
				ds = append(ds, errAt("verify", f, i, "", "input offset %d is negative", in.Index))
			}
		case ir.Call:
			if in.Callee == "" {
				ds = append(ds, errAt("verify", f, i, "", "call with empty callee"))
			} else if _, ok := m.Functions[in.Callee]; !ok {
				ds = append(ds, errAt("verify", f, i, in.Callee, "call to undefined function %s", in.Callee))
			}
		case ir.Placeholder, ir.TypeUse:
			if in.Tradeoff == "" {
				ds = append(ds, errAt("verify", f, i, "", "%s with empty tradeoff reference", in.Op))
			} else if _, ok := tradeoffAt[in.Tradeoff]; !ok {
				ds = append(ds, errAt("verify", f, i, in.Tradeoff,
					"%s references undeclared tradeoff %s", in.Op, in.Tradeoff))
			}
			if in.Op == ir.TypeUse && in.Name == "" {
				ds = append(ds, errAt("verify", f, i, "", "typeuse without a variable name"))
			}
		case ir.StateRead, ir.StateWrite, ir.StateReadIdx, ir.StateWriteIdx:
			if in.Name == "" {
				ds = append(ds, errAt("verify", f, i, "", "%s without a state variable name", in.Op))
			}
		case ir.InputField:
			if in.Name == "" {
				ds = append(ds, errAt("verify", f, i, "", "inputfield without a field name"))
			}
		}

		if retAt >= 0 {
			d := errAt("verify", f, i, "", "unreachable instruction after return at instr %d", retAt)
			d.Severity = Warning
			ds = append(ds, d)
			retAt = -2 // report the first unreachable instruction only
		}
		if in.Op == ir.Ret && retAt == -1 {
			retAt = i
		}
	}
	return ds
}

// verifyTradeoffs checks the tradeoff metadata table: sizes, default
// indices, value-name tables, getValue resolvability and evaluability,
// and aux-clone bookkeeping (congruence with the original row when the
// original still exists, i.e. before the mid-end pins and deletes it).
func verifyTradeoffs(m *ir.Module) []Diagnostic {
	var ds []Diagnostic
	for _, t := range m.Tradeoffs {
		if t.Name == "" {
			ds = append(ds, metaDiag("verify", Error, t.Pos, "", "tradeoff row with empty name"))
			continue
		}
		if t.Size <= 0 {
			ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name, "tradeoff %s has no values (size %d)", t.Name, t.Size))
		}
		if t.Default < 0 || (t.Size > 0 && t.Default >= t.Size) {
			ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
				"tradeoff %s default index %d out of [0,%d)", t.Name, t.Default, t.Size))
		}
		switch t.Kind {
		case tradeoff.Constant:
			if len(t.ValueNames) != 0 {
				ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
					"constant tradeoff %s carries %d value names", t.Name, len(t.ValueNames)))
			}
		case tradeoff.Type, tradeoff.Function:
			if int64(len(t.ValueNames)) != t.Size {
				ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
					"tradeoff %s declares size %d but %d value names", t.Name, t.Size, len(t.ValueNames)))
			}
			if t.Kind == tradeoff.Function {
				for _, v := range t.ValueNames {
					if _, ok := m.Functions[v]; !ok {
						ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
							"function tradeoff %s variant %s is not defined", t.Name, v))
					}
				}
			}
		default:
			ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
				"tradeoff %s has undefined kind %d", t.Name, int(t.Kind)))
		}

		// getValue must resolve, stay evaluable, and actually return.
		if gv, ok := m.Functions[t.GetValue]; !ok {
			ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
				"tradeoff %s getValue function %s is not defined", t.Name, t.GetValue))
		} else {
			returns := false
			for i, in := range gv.Instrs {
				if !evalOps[in.Op] {
					ds = append(ds, errAt("verify", gv, i, t.Name,
						"getValue function %s contains non-evaluable opcode %s", gv.Name, in.Op))
					break
				}
				if in.Op == ir.Ret {
					returns = true
				}
			}
			if !returns {
				ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
					"getValue function %s never returns", gv.Name))
			}
		}

		// Aux bookkeeping and tradeoff-clone congruence.
		if t.Aux && t.ClonedFrom == "" {
			ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
				"aux tradeoff %s does not record its original (ClonedFrom)", t.Name))
		}
		if !t.Aux && t.ClonedFrom != "" {
			ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
				"non-aux tradeoff %s claims to be cloned from %s", t.Name, t.ClonedFrom))
		}
		if t.Aux && t.ClonedFrom != "" {
			if orig, ok := m.Tradeoff(t.ClonedFrom); ok {
				if orig.Kind != t.Kind || orig.Size != t.Size || orig.Default != t.Default {
					ds = append(ds, metaDiag("verify", Error, t.Pos, t.Name,
						"aux tradeoff %s diverges from original %s (kind/size/default %d/%d/%d vs %d/%d/%d)",
						t.Name, orig.Name, int(t.Kind), t.Size, t.Default, int(orig.Kind), orig.Size, orig.Default))
				}
			}
		}
	}
	return ds
}

// verifyDeps checks the state-dependence table and, for each dependence
// with auxiliary code, the structural congruence of the deep clone with
// its original compute function.
func verifyDeps(m *ir.Module, decls bool) []Diagnostic {
	var ds []Diagnostic
	seen := map[string]bool{}
	for _, d := range m.Deps {
		if d.Name == "" {
			ds = append(ds, metaDiag("verify", Error, d.Pos, "", "state dependence with empty name"))
			continue
		}
		if seen[d.Name] {
			if decls {
				ds = append(ds, metaDiag("verify", Error, d.Pos, d.Name, "state dependence %s declared twice", d.Name))
			}
			continue
		}
		seen[d.Name] = true
		if d.Window < 0 {
			ds = append(ds, metaDiag("verify", Error, d.Pos, d.Name,
				"state dependence %s has negative window %d", d.Name, d.Window))
		}
		if d.Slots < 0 {
			ds = append(ds, metaDiag("verify", Error, d.Pos, d.Name,
				"state dependence %s has negative slot count %d", d.Name, d.Slots))
		}
		if len(d.Reserve) > 0 && d.Slots == 0 {
			ds = append(ds, metaDiag("verify", Error, d.Pos, d.Name,
				"state dependence %s declares a reservation footprint without a slot count", d.Name))
		}
		orig, ok := m.Functions[d.Compute]
		if !ok {
			ds = append(ds, metaDiag("verify", Error, d.Pos, d.Name,
				"state dependence %s compute function %s is not defined", d.Name, d.Compute))
			continue
		}
		if d.AuxCompute == "" || d.AuxCompute == d.Compute {
			continue // no clone (conventional-only, or clone budget exhausted)
		}
		aux, ok := m.Functions[d.AuxCompute]
		if !ok {
			ds = append(ds, metaDiag("verify", Error, d.Pos, d.Name,
				"state dependence %s auxiliary function %s is not defined", d.Name, d.AuxCompute))
			continue
		}
		ds = append(ds, verifyCongruence(m, d, orig, aux)...)
	}
	return ds
}

// verifyCongruence checks that an auxiliary clone is instruction-for-
// instruction congruent with its original: identical opcodes and fields,
// except (a) callees may be rewritten to their "$aux$dep" clones, (b)
// tradeoff references may be rewritten to aux tradeoff clones, and (c)
// where the mid-end pinned the original's tradeoff to its default, the
// aux side keeps the live reference (Placeholder vs pinned Const/Call,
// TypeUse vs pinned Extern). Anything else means the clone diverged.
func verifyCongruence(m *ir.Module, d ir.DepMeta, orig, aux *ir.Function) []Diagnostic {
	var ds []Diagnostic
	suffix := "$aux$" + d.Name
	if len(orig.Instrs) != len(aux.Instrs) {
		return append(ds, metaDiag("verify", Error, d.Pos, d.Name,
			"aux clone %s has %d instrs, original %s has %d",
			aux.Name, len(aux.Instrs), orig.Name, len(orig.Instrs)))
	}
	auxTradeoffOK := func(name string) bool {
		t, ok := m.Tradeoff(name)
		return ok && t.Aux
	}
	for i := range orig.Instrs {
		o, a := orig.Instrs[i], aux.Instrs[i]
		if o.Op == a.Op {
			same := o.Value == a.Value && o.Index == a.Index && o.Name == a.Name &&
				argsEqual(o.Args, a.Args)
			switch o.Op {
			case ir.Call:
				same = same && (a.Callee == o.Callee || a.Callee == o.Callee+suffix)
			case ir.Placeholder, ir.TypeUse:
				same = same && (a.Tradeoff == o.Tradeoff || a.Tradeoff == o.Tradeoff+suffix)
			default:
				same = same && o.Callee == a.Callee && o.Tradeoff == a.Tradeoff
			}
			if !same {
				ds = append(ds, errAt("verify", aux, i, d.Name,
					"aux clone diverges from original %s at instr %d (%s)", orig.Name, i, o.Op))
			}
			continue
		}
		// Pinned-original pairs: the original lost its tradeoff reference
		// to default-pinning while the clone kept a live aux reference.
		pinnedOK := false
		switch {
		case a.Op == ir.Placeholder && (o.Op == ir.Const || o.Op == ir.Call):
			pinnedOK = auxTradeoffOK(a.Tradeoff)
		case a.Op == ir.TypeUse && o.Op == ir.Extern:
			pinnedOK = auxTradeoffOK(a.Tradeoff) && o.Name == a.Name
		}
		if !pinnedOK {
			ds = append(ds, errAt("verify", aux, i, d.Name,
				"aux clone diverges from original %s at instr %d (%s vs %s)", orig.Name, i, a.Op, o.Op))
		}
	}
	return ds
}

// argsEqual compares operand slices.
func argsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// callGraphRoots returns the names analysis treats as entry points: every
// dependence's compute and auxiliary function plus every tradeoff's
// getValue; reachability-based passes start here.
func callGraphRoots(m *ir.Module) []string {
	var roots []string
	for _, d := range m.Deps {
		if d.Compute != "" {
			roots = append(roots, d.Compute)
		}
		if d.AuxCompute != "" && d.AuxCompute != d.Compute {
			roots = append(roots, d.AuxCompute)
		}
	}
	for _, t := range m.Tradeoffs {
		if t.GetValue != "" {
			roots = append(roots, t.GetValue)
		}
		// Function-tradeoff variants are potential callees once the
		// back-end substitutes the placeholder.
		if t.Kind == tradeoff.Function {
			roots = append(roots, t.ValueNames...)
		}
	}
	return roots
}

// reachable returns the set of function names reachable from the roots
// through Call edges.
func reachable(m *ir.Module, roots []string) map[string]bool {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		f, ok := m.Functions[name]
		if !ok {
			return
		}
		seen[name] = true
		for _, c := range f.Callees() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

// describeRefs renders a function list for diagnostics, capped for
// readability.
func describeRefs(names []string) string {
	if len(names) > 3 {
		return strings.Join(names[:3], ", ") + fmt.Sprintf(", … (%d total)", len(names))
	}
	return strings.Join(names, ", ")
}
