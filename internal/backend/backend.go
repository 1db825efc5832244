// Package backend is the STATS back-end compiler (§3.4, "Generating a
// binary" and "Setting a tradeoff"): it takes the middle-end's IR and a
// point of the module's state space (profiler.ModuleSpace) and instantiates
// it, producing the Program (the "binary").
//
// Setting a tradeoff follows the paper's two compile-time steps: first the
// value at the chosen index is fetched by *executing* the tradeoff's
// getValue function (the paper uses LLVM's dynamic compiler; here the IR
// interpreter), then every reference is substituted according to the
// tradeoff's kind — constants replace placeholder calls, type choices
// re-type variables (inserting casts at their uses), and function choices
// replace placeholder callees. Finally the specialized runtime is "linked"
// into the binary: each state dependence carries the engine options its
// block of the configuration decodes to.
//
// Instantiation is deliberately cheap (only these simple rewrites), which
// is why the paper splits the middle-end from the back-end: the autotuner
// re-instantiates the same IR for every configuration it probes.
package backend

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/profiler"
	"repro/internal/space"
	"repro/internal/tradeoff"
	"repro/internal/workload"
)

// Program is the back-end's output: the specialized module plus the
// resolved bindings — the "binary". Nothing executes it: the workloads run
// their Go kernels, and a Program is what the compiler pipeline resolves
// (and statsc prints) for one point of the module's state space.
type Program struct {
	Module *ir.Module
	// Constants maps constant tradeoffs to their resolved values.
	Constants map[string]int64
	// TypeBindings maps re-typed variables to their chosen type names.
	TypeBindings map[string]string
	// Callees maps function tradeoffs to their chosen implementations.
	Callees map[string]string
	// Runtime maps each dependence to the engine options
	// profiler.DecodeDependence reads from its block of the configuration.
	Runtime map[string]workload.SpecOptions
	// SizeIncrease is the instruction-count growth versus the original
	// program (every function but the auxiliary clones), Table 1's "binary
	// size increase" column.
	SizeIncrease float64
}

// Compile instantiates c, a point of profiler.ModuleSpace(m), against the
// module m; a nil c instantiates the space's default point (every tradeoff
// at its default, every dependence satisfied conventionally).
func Compile(m *ir.Module, c space.Config) (*Program, error) {
	for _, t := range m.Tradeoffs {
		if !t.Aux {
			return nil, fmt.Errorf("backend: non-aux tradeoff %s survived the middle-end", t.Name)
		}
	}
	s, err := profiler.ModuleSpace(m)
	if err != nil {
		return nil, err
	}
	if c == nil {
		c = s.Default()
	}
	if err := s.Validate(c); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	p := &Program{
		Module:       cloneModule(m),
		Constants:    map[string]int64{},
		TypeBindings: map[string]string{},
		Callees:      map[string]string{},
		Runtime:      map[string]workload.SpecOptions{},
	}

	for i, t := range p.Module.Tradeoffs {
		// Tradeoff i is dimension i of the module's space.
		idx := c[i]
		// Step 1: fetch the value by executing getValue.
		val, err := p.Module.Eval(t.GetValue, idx)
		if err != nil {
			return nil, fmt.Errorf("backend: resolving %s: %w", t.Name, err)
		}
		// Step 2: substitute references by kind.
		switch t.Kind {
		case tradeoff.Constant:
			p.Constants[t.Name] = val
			substitute(p.Module, t.Name, func(in *ir.Instr) {
				*in = ir.Instr{Op: ir.Const, Value: val}
			})
		case tradeoff.Type:
			if val < 0 || val >= int64(len(t.ValueNames)) {
				return nil, fmt.Errorf("backend: type tradeoff %s value %d out of range", t.Name, val)
			}
			typeName := t.ValueNames[val]
			substitute(p.Module, t.Name, func(in *ir.Instr) {
				p.TypeBindings[in.Name] = typeName
				// Re-type the variable and add the cast its uses
				// need ("extra casts are added according to the
				// variable's uses").
				*in = ir.Instr{Op: ir.Extern, Name: in.Name + ":" + typeName}
			})
		case tradeoff.Function:
			if val < 0 || val >= int64(len(t.ValueNames)) {
				return nil, fmt.Errorf("backend: function tradeoff %s value %d out of range", t.Name, val)
			}
			callee := t.ValueNames[val]
			if _, ok := p.Module.Functions[callee]; !ok {
				return nil, fmt.Errorf("backend: function tradeoff %s selects missing callee %s", t.Name, callee)
			}
			p.Callees[t.Name] = callee
			substitute(p.Module, t.Name, func(in *ir.Instr) {
				*in = ir.Instr{Op: ir.Call, Callee: callee}
			})
		}
	}

	// Link the specialized runtime into each state dependence.
	for _, d := range p.Module.Deps {
		o := profiler.DecodeDependence(s, c, d.Name)
		if o.UseAux && d.AuxCompute == "" {
			return nil, fmt.Errorf("backend: dependence %s has no auxiliary code", d.Name)
		}
		p.Runtime[d.Name] = o
	}

	baseline := 0
	for name, f := range m.Functions {
		if !strings.Contains(name, "$aux$") {
			baseline += len(f.Instrs)
		}
	}
	if baseline > 0 {
		p.SizeIncrease = float64(p.Module.InstrCount()-baseline) / float64(baseline)
	}
	return p, nil
}

// substitute applies fn to every instruction referencing the tradeoff.
func substitute(m *ir.Module, tradeoffName string, fn func(*ir.Instr)) {
	for _, f := range m.Functions {
		for i := range f.Instrs {
			if f.Instrs[i].Tradeoff == tradeoffName {
				fn(&f.Instrs[i])
			}
		}
	}
}

func cloneModule(m *ir.Module) *ir.Module {
	c := ir.NewModule()
	for name, f := range m.Functions {
		c.Functions[name] = f.Clone(name)
	}
	c.Tradeoffs = append([]ir.TradeoffMeta(nil), m.Tradeoffs...)
	c.Deps = append([]ir.DepMeta(nil), m.Deps...)
	return c
}

// Validate checks that the program is fully instantiated: no placeholder
// or type-use instructions remain and every callee resolves.
func (p *Program) Validate() error {
	for name, f := range p.Module.Functions {
		for i, in := range f.Instrs {
			switch in.Op {
			case ir.Placeholder, ir.TypeUse:
				return fmt.Errorf("backend: %s instr %d: unresolved %s reference to %s", name, i, in.Op, in.Tradeoff)
			case ir.Call:
				if _, ok := p.Module.Functions[in.Callee]; !ok {
					return fmt.Errorf("backend: %s instr %d: missing callee %s", name, i, in.Callee)
				}
			}
		}
	}
	return nil
}
