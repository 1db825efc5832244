// Package midend is the STATS middle-end compiler (§3.4, "Generating IR
// with auxiliary code"): it lowers the front-end's standard source to IR
// with metadata, then, for each state dependence d,
//
//   - deep-clones d's computeOutput() as d's auxiliary code, cloning a
//     reachable callee only if it (or one of its callees) contains a
//     tradeoff — found with a bottom-up call-graph analysis — and stopping
//     at an instruction budget;
//   - clones the tradeoffs reachable from the auxiliary code so STATS can
//     control the auxiliary code's quality independently;
//   - pins every tradeoff *outside* auxiliary code to its default value
//     and deletes its metadata entry, so the emitted IR only describes the
//     state space that remains tunable.
package midend

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/tradeoff"
)

// CloneBudget is the maximum number of instructions the middle-end will
// clone per computeOutput (the paper's "maximum number of instructions per
// computeOutput()").
const CloneBudget = 4096

// externBulk is the number of opaque host instructions synthesized per
// compute function, standing in for the real computation's body.
const externBulk = 160

// Lower converts the front-end output into an IR module with auxiliary
// code, ready for the back-end. The metadata rows are the parser's own
// (frontend.TradeoffDecl and DepDecl embed them); Lower appends them and
// fills in only what it decides: each tradeoff's GetValue here, then the
// aux clones' Aux and ClonedFrom and each dependence's AuxCompute.
func Lower(fo *frontend.Output) (*ir.Module, error) {
	m := ir.NewModule()

	// Tradeoff metadata + getValue functions (interpretable IR). Every
	// synthesized instruction carries the declaration's source position so
	// analysis diagnostics point at real source.
	for _, t := range fo.Tradeoffs {
		gv := &ir.Function{Name: fmt.Sprintf("T_%d_getValue", t.ID)}
		switch t.Kind {
		case tradeoff.Constant:
			// return i + Lo
			gv.Instrs = []ir.Instr{
				{Op: ir.Param, Index: 0, Pos: t.Pos},
				{Op: ir.Const, Value: t.Lo, Pos: t.Pos},
				{Op: ir.Add, Args: []int{0, 1}, Pos: t.Pos},
				{Op: ir.Ret, Args: []int{2}, Pos: t.Pos},
			}
		default:
			// return i (an index into ValueNames)
			gv.Instrs = []ir.Instr{
				{Op: ir.Param, Index: 0, Pos: t.Pos},
				{Op: ir.Ret, Args: []int{0}, Pos: t.Pos},
			}
		}
		m.AddFunction(gv)
		row := t.TradeoffMeta
		row.GetValue = gv.Name
		m.Tradeoffs = append(m.Tradeoffs, row)
	}

	// Synthesize compute functions. The first used tradeoff is referenced
	// directly; the rest live in a called kernel helper, so the deep-
	// cloning logic is exercised transitively. Function-kind tradeoffs
	// get their candidate callees declared as extern leaf functions.
	declared := map[string]bool{}
	for _, t := range fo.Tradeoffs {
		if t.Kind == tradeoff.Function {
			for _, callee := range t.ValueNames {
				if !declared[callee] {
					declared[callee] = true
					m.AddFunction(&ir.Function{Name: callee, Instrs: []ir.Instr{{Op: ir.Extern}}})
				}
			}
		}
	}
	kindOf := map[string]tradeoff.Kind{}
	for _, t := range fo.Tradeoffs {
		kindOf[t.Name] = t.Kind
	}
	for _, d := range fo.Deps {
		if _, dup := m.Functions[d.Compute]; dup {
			return nil, fmt.Errorf("midend: compute %s declared twice", d.Compute)
		}
		compute := &ir.Function{Name: d.Compute}
		// The compute function's effect skeleton (Figure 4's pattern):
		// read the current input, read the state, compute, write the
		// state back. The effect pass proves the auxiliary clone stays
		// inside exactly this footprint. When the dependence declares
		// which slots it touches, the whole-state read/write pair is
		// replaced by per-slot indexed accesses whose index expressions
		// the footprint pass can evaluate abstractly.
		compute.Instrs = append(compute.Instrs, ir.Instr{Op: ir.InputRead, Index: 0, Pos: d.Pos})
		indexed := len(d.Touches) > 0
		for _, e := range d.Touches {
			if e.Whole {
				indexed = false // a whole-state touch subsumes the rest
				break
			}
		}
		var touchIdx []int
		if indexed {
			for _, e := range d.Touches {
				idx := lowerIndex(compute, e)
				touchIdx = append(touchIdx, idx)
				compute.Instrs = append(compute.Instrs,
					ir.Instr{Op: ir.StateReadIdx, Name: d.State, Args: []int{idx}, Pos: e.Pos})
			}
		} else {
			compute.Instrs = append(compute.Instrs, ir.Instr{Op: ir.StateRead, Name: d.State, Pos: d.Pos})
		}
		addRef := func(f *ir.Function, name string) {
			switch kindOf[name] {
			case tradeoff.Type:
				f.Instrs = append(f.Instrs, ir.Instr{Op: ir.TypeUse, Tradeoff: name, Name: "v_" + name, Pos: d.Pos})
			default:
				f.Instrs = append(f.Instrs, ir.Instr{Op: ir.Placeholder, Tradeoff: name, Pos: d.Pos})
			}
		}
		if len(d.Uses) > 0 {
			addRef(compute, d.Uses[0])
		}
		if len(d.Uses) > 1 {
			kernel := &ir.Function{Name: d.Compute + "$kernel"}
			for _, u := range d.Uses[1:] {
				addRef(kernel, u)
			}
			for i := 0; i < externBulk; i++ {
				kernel.Instrs = append(kernel.Instrs, ir.Instr{Op: ir.Extern, Pos: d.Pos})
			}
			m.AddFunction(kernel)
			compute.Instrs = append(compute.Instrs, ir.Instr{Op: ir.Call, Callee: kernel.Name, Pos: d.Pos})
		}
		// A tradeoff-free library helper: must NOT be cloned.
		lib := &ir.Function{Name: d.Compute + "$lib"}
		for i := 0; i < externBulk; i++ {
			lib.Instrs = append(lib.Instrs, ir.Instr{Op: ir.Extern, Pos: d.Pos})
		}
		m.AddFunction(lib)
		compute.Instrs = append(compute.Instrs, ir.Instr{Op: ir.Call, Callee: lib.Name, Pos: d.Pos})
		for i := 0; i < externBulk; i++ {
			compute.Instrs = append(compute.Instrs, ir.Instr{Op: ir.Extern, Pos: d.Pos})
		}
		if indexed {
			for k, e := range d.Touches {
				compute.Instrs = append(compute.Instrs,
					ir.Instr{Op: ir.StateWriteIdx, Name: d.State, Args: []int{touchIdx[k]}, Pos: e.Pos})
			}
		} else {
			compute.Instrs = append(compute.Instrs, ir.Instr{Op: ir.StateWrite, Name: d.State, Pos: d.Pos})
		}
		m.AddFunction(compute)
		m.Deps = append(m.Deps, d.DepMeta)
	}

	// Generate auxiliary code, then pin the originals.
	if err := generateAux(m); err != nil {
		return nil, err
	}
	if err := pinDefaults(m); err != nil {
		return nil, err
	}
	return m, nil
}

// lowerIndex appends the instructions computing the slot index declared by
// e — an affine expression stride*field+offset over the current input — and
// returns the index of the instruction holding the result.
func lowerIndex(f *ir.Function, e ir.IndexExpr) int {
	if e.Field == "" {
		f.Instrs = append(f.Instrs, ir.Instr{Op: ir.Const, Value: e.Offset, Pos: e.Pos})
		return len(f.Instrs) - 1
	}
	f.Instrs = append(f.Instrs, ir.Instr{Op: ir.InputField, Name: e.Field, Pos: e.Pos})
	cur := len(f.Instrs) - 1
	if e.Stride != 1 {
		f.Instrs = append(f.Instrs, ir.Instr{Op: ir.Const, Value: e.Stride, Pos: e.Pos})
		f.Instrs = append(f.Instrs, ir.Instr{Op: ir.Mul, Args: []int{cur, len(f.Instrs) - 1}, Pos: e.Pos})
		cur = len(f.Instrs) - 1
	}
	if e.Offset != 0 {
		f.Instrs = append(f.Instrs, ir.Instr{Op: ir.Const, Value: e.Offset, Pos: e.Pos})
		f.Instrs = append(f.Instrs, ir.Instr{Op: ir.Add, Args: []int{cur, len(f.Instrs) - 1}, Pos: e.Pos})
		cur = len(f.Instrs) - 1
	}
	return cur
}

// hasTradeoffs reports, per function, whether it or any transitive callee
// references a tradeoff — the bottom-up call-graph analysis driving deep
// cloning.
func hasTradeoffs(m *ir.Module) map[string]bool {
	memo := map[string]bool{}
	var visit func(name string, stack map[string]bool) bool
	visit = func(name string, stack map[string]bool) bool {
		if v, ok := memo[name]; ok {
			return v
		}
		if stack[name] {
			return false // break cycles conservatively
		}
		stack[name] = true
		defer delete(stack, name)
		f, ok := m.Functions[name]
		if !ok {
			return false
		}
		if len(f.TradeoffRefs()) > 0 {
			memo[name] = true
			return true
		}
		for _, c := range f.Callees() {
			if visit(c, stack) {
				memo[name] = true
				return true
			}
		}
		memo[name] = false
		return false
	}
	for name := range m.Functions {
		visit(name, map[string]bool{})
	}
	return memo
}

// generateAux clones each dependence's compute function (and the tradeoff-
// bearing part of its call graph) into auxiliary code with private
// tradeoff clones.
func generateAux(m *ir.Module) error {
	needsClone := hasTradeoffs(m)
	for di := range m.Deps {
		d := &m.Deps[di]
		suffix := "$aux$" + d.Name
		budget := CloneBudget

		var cloneFn func(name string) (string, error)
		cloned := map[string]string{}
		cloneFn = func(name string) (string, error) {
			if newName, ok := cloned[name]; ok {
				return newName, nil
			}
			f, ok := m.Functions[name]
			if !ok {
				return "", fmt.Errorf("midend: missing function %s", name)
			}
			if budget < len(f.Instrs) {
				// Budget exhausted: stop cloning; the aux code keeps
				// calling the shared original from here down.
				return name, nil
			}
			budget -= len(f.Instrs)
			newName := name + suffix
			cloned[name] = newName
			c := f.Clone(newName)
			for i := range c.Instrs {
				in := &c.Instrs[i]
				switch in.Op {
				case ir.Call:
					if needsClone[in.Callee] {
						nn, err := cloneFn(in.Callee)
						if err != nil {
							return "", err
						}
						in.Callee = nn
					}
				case ir.Placeholder, ir.TypeUse:
					auxName := in.Tradeoff + suffix
					if _, exists := m.Tradeoff(auxName); !exists {
						orig, ok := m.Tradeoff(in.Tradeoff)
						if !ok {
							return "", fmt.Errorf("midend: missing tradeoff %s", in.Tradeoff)
						}
						clone := *orig
						clone.Name = auxName
						clone.Aux = true
						clone.ClonedFrom = orig.Name
						m.Tradeoffs = append(m.Tradeoffs, clone)
					}
					in.Tradeoff = auxName
				}
			}
			m.AddFunction(c)
			return newName, nil
		}

		auxName, err := cloneFn(d.Compute)
		if err != nil {
			return err
		}
		d.AuxCompute = auxName
	}
	return nil
}

// pinDefaults sets every non-aux tradeoff reference to its default value
// and deletes the original metadata rows, leaving only auxiliary tradeoffs
// tunable.
func pinDefaults(m *ir.Module) error {
	var originals []string
	for _, t := range m.Tradeoffs {
		if !t.Aux {
			originals = append(originals, t.Name)
		}
	}
	for _, name := range originals {
		t, _ := m.Tradeoff(name)
		def, err := m.Eval(t.GetValue, t.Default)
		if err != nil {
			return fmt.Errorf("midend: pinning %s: %w", name, err)
		}
		for _, f := range m.Functions {
			for i := range f.Instrs {
				in := &f.Instrs[i]
				if in.Tradeoff != name {
					continue
				}
				switch in.Op {
				case ir.Placeholder:
					if t.Kind == tradeoff.Function {
						// The placeholder call's callee becomes the
						// default implementation.
						*in = ir.Instr{Op: ir.Call, Callee: t.ValueNames[def]}
					} else {
						*in = ir.Instr{Op: ir.Const, Value: def}
					}
				case ir.TypeUse:
					// The variable keeps its default type: the
					// annotation disappears.
					*in = ir.Instr{Op: ir.Extern, Name: in.Name}
				}
			}
		}
		m.RemoveTradeoff(name)
	}
	return nil
}
