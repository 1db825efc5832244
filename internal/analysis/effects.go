package analysis

import (
	"sort"
	"strconv"

	"repro/internal/ir"
)

// EffectsPass is the effect/purity dataflow: it computes, for every
// function, the transitive set of state variables read and written and
// the deepest input-window offset touched, then proves each dependence's
// auxiliary code stays inside the STATS contract — auxiliary code may
// read only the recent inputs inside its declared statedep window and
// its own dependence's state, and may write nothing but the speculative
// start state (its own dependence's state variable). A violation here is
// exactly the bug the runtime would otherwise discover as a validation
// mismatch and pay for with aborts and squashed work.
var EffectsPass = &Pass{
	Name: "effects",
	Doc:  "per-function state read/write sets; aux code confined to window + speculative start state",
	run:  func(m *ir.Module, _ bool) []Diagnostic { return runEffects(m) },
}

// Site locates one effect occurrence: the function and instruction that
// performs the access, with its source position.
type Site struct {
	Fn    string
	Instr int
	Pos   ir.Pos
}

// effectSet is one function's transitive effect summary. Map values are
// the first site (in call-graph discovery order) performing the access,
// so diagnostics can name a concrete offending instruction.
type effectSet struct {
	// StateReads and StateWrites map state variable names to an
	// access site, including accesses performed by transitive callees.
	StateReads  map[string]Site
	StateWrites map[string]Site
	// MaxInput is the deepest InputRead offset reachable (-1 when the
	// function never reads an input); InputSite locates it.
	MaxInput  int
	InputSite Site
}

// newEffectSet returns an empty summary.
func newEffectSet() *effectSet {
	return &effectSet{StateReads: map[string]Site{}, StateWrites: map[string]Site{}, MaxInput: -1}
}

// readVars returns the sorted state variables read.
func (e *effectSet) readVars() []string { return sortedKeys(e.StateReads) }

// writeVars returns the sorted state variables written.
func (e *effectSet) writeVars() []string { return sortedKeys(e.StateWrites) }

func sortedKeys(m map[string]Site) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// effectSets computes the transitive effect summary of every function by
// iterating direct effects plus callee summaries to a fixpoint. The
// iteration converges because summaries only grow and the lattice
// (subsets of state variables × max offset) is finite; cycles in a
// malformed call graph are therefore handled without special cases.
func effectSets(m *ir.Module) map[string]*effectSet {
	sets := map[string]*effectSet{}
	for name, f := range m.Functions {
		s := newEffectSet()
		for i, in := range f.Instrs {
			site := Site{Fn: name, Instr: i, Pos: in.Pos}
			switch in.Op {
			case ir.StateRead, ir.StateReadIdx:
				if _, ok := s.StateReads[in.Name]; !ok {
					s.StateReads[in.Name] = site
				}
			case ir.StateWrite, ir.StateWriteIdx:
				if _, ok := s.StateWrites[in.Name]; !ok {
					s.StateWrites[in.Name] = site
				}
			case ir.InputRead:
				if in.Index > s.MaxInput {
					s.MaxInput, s.InputSite = in.Index, site
				}
			case ir.InputField:
				// A field projection of the current input: offset 0.
				if s.MaxInput < 0 {
					s.MaxInput, s.InputSite = 0, site
				}
			}
		}
		sets[name] = s
	}

	for changed := true; changed; {
		changed = false
		for name, f := range m.Functions {
			s := sets[name]
			for _, callee := range f.Callees() {
				cs, ok := sets[callee]
				if !ok {
					continue // dangling callee: the verifier reports it
				}
				for v, site := range cs.StateReads {
					if _, have := s.StateReads[v]; !have {
						s.StateReads[v] = site
						changed = true
					}
				}
				for v, site := range cs.StateWrites {
					if _, have := s.StateWrites[v]; !have {
						s.StateWrites[v] = site
						changed = true
					}
				}
				if cs.MaxInput > s.MaxInput {
					s.MaxInput, s.InputSite = cs.MaxInput, cs.InputSite
					changed = true
				}
			}
		}
	}
	return sets
}

func runEffects(m *ir.Module) []Diagnostic {
	var ds []Diagnostic
	sets := effectSets(m)
	for _, d := range m.Deps {
		if d.AuxCompute == "" {
			continue // no auxiliary code: nothing speculates
		}
		eff, ok := sets[d.AuxCompute]
		if !ok {
			continue // dangling aux function: the verifier reports it
		}
		for _, v := range eff.readVars() {
			if v == d.State {
				continue // the speculative start state: the aux input
			}
			site := eff.StateReads[v]
			ds = append(ds, Diagnostic{
				Pass: "effects", Severity: Error, Pos: site.Pos,
				Fn: site.Fn, Instr: site.Instr, Var: v,
				Msg: "auxiliary code for dependence " + d.Name + " reads foreign state " + v +
					"; aux may read only its own dependence's state and the recent-input window",
			})
		}
		for _, v := range eff.writeVars() {
			if v == d.State {
				continue // the speculative start state: the one legal write
			}
			site := eff.StateWrites[v]
			ds = append(ds, Diagnostic{
				Pass: "effects", Severity: Error, Pos: site.Pos,
				Fn: site.Fn, Instr: site.Instr, Var: v,
				Msg: "auxiliary code for dependence " + d.Name + " writes state " + v +
					"; aux may write nothing but the speculative start state (" + d.State + ")",
			})
		}
		if d.Window > 0 && eff.MaxInput >= d.Window {
			site := eff.InputSite
			ds = append(ds, Diagnostic{
				Pass: "effects", Severity: Error, Pos: site.Pos,
				Fn: site.Fn, Instr: site.Instr, Var: d.Input,
				Msg: "auxiliary code for dependence " + d.Name + " reads input " +
					strconv.Itoa(eff.MaxInput) + " positions back, outside its declared window of " + strconv.Itoa(d.Window),
			})
		}
	}
	return ds
}
