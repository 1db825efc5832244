package analysis

import (
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/midend"
	"repro/internal/tradeoff"
)

// goodSource is a well-formed SDI/TI program: every pass must be clean.
const goodSource = `
tradeoff TO_layers {
    kind constant;
    values 1..10;
    default 4;
}
tradeoff TO_prec {
    kind type;
    values half, single, double;
    default 2;
}
statedep track {
    input Frame;
    state Model;
    output Pose;
    compute update uses TO_layers, TO_prec;
    compare cmp;
    window 2;
}
`

// lower runs the front half of the pipeline, failing the test on error.
func lower(t *testing.T, src string) (*frontend.Output, *ir.Module) {
	t.Helper()
	fo, err := frontend.Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := midend.Lower(fo)
	if err != nil {
		t.Fatal(err)
	}
	return fo, m
}

// wantFinding asserts that some diagnostic from pass with severity sev
// mentions every fragment.
func wantFinding(t *testing.T, ds []Diagnostic, pass string, sev Severity, fragments ...string) {
	t.Helper()
outer:
	for _, d := range ds {
		if d.Pass != pass || d.Severity != sev {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(d.String(), f) {
				continue outer
			}
		}
		return
	}
	t.Fatalf("no %s %s diagnostic containing %q; got:\n%s", pass, sev, fragments, renderAll(ds))
}

func renderAll(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (no diagnostics)"
	}
	return b.String()
}

func TestPipelineOutputIsClean(t *testing.T) {
	fo, m := lower(t, goodSource)
	if ds := AnalyzeProgram(fo, m); len(ds) != 0 {
		t.Fatalf("well-formed program produced diagnostics:\n%s", renderAll(ds))
	}
	if err := Check(m); err != nil {
		t.Fatalf("Check rejected a well-formed module: %v", err)
	}
}

func TestVerifyOperandArityAndDefBeforeUse(t *testing.T) {
	m := ir.NewModule()
	m.AddFunction(&ir.Function{Name: "f", Instrs: []ir.Instr{
		{Op: ir.Const, Value: 1},
		{Op: ir.Add, Args: []int{0}},                   // wrong arity
		{Op: ir.Mul, Args: []int{0, 5}},                // forward reference
		{Op: ir.Ret, Args: []int{3}},                   // self reference
		{Op: ir.Const, Value: 2, Pos: ir.Pos{Line: 9}}, // unreachable
	}})
	ds := VerifyPass.Run(m)
	wantFinding(t, ds, "verify", Error, "add takes 2 operand(s), got 1")
	wantFinding(t, ds, "verify", Error, "mul operand 5 is not defined before use")
	wantFinding(t, ds, "verify", Error, "ret operand 3 is not defined before use")
	wantFinding(t, ds, "verify", Warning, "unreachable instruction after return")
}

func TestVerifyCallGraphAndReferences(t *testing.T) {
	m := ir.NewModule()
	m.AddFunction(&ir.Function{Name: "f", Instrs: []ir.Instr{
		{Op: ir.Call, Callee: "ghost"},
		{Op: ir.Placeholder, Tradeoff: "TO_missing"},
		{Op: ir.StateRead},
	}})
	ds := VerifyPass.Run(m)
	wantFinding(t, ds, "verify", Error, "call to undefined function ghost")
	wantFinding(t, ds, "verify", Error, "references undeclared tradeoff TO_missing")
	wantFinding(t, ds, "verify", Error, "stateread without a state variable name")
}

func TestVerifyMetadata(t *testing.T) {
	m := ir.NewModule()
	m.AddFunction(&ir.Function{Name: "gv_bad", Instrs: []ir.Instr{{Op: ir.Extern}}})
	m.Tradeoffs = []ir.TradeoffMeta{
		{Name: "a", Kind: tradeoff.Constant, GetValue: "nope", Size: 3, Default: 5},
		{Name: "b", Kind: tradeoff.Constant, GetValue: "gv_bad", Size: 2, Default: 0},
		{Name: "c", Kind: tradeoff.Function, GetValue: "gv_bad", Size: 2, Default: 0,
			ValueNames: []string{"impl1"}},
		{Name: "d", Kind: tradeoff.Constant, GetValue: "gv_bad", Size: 1, Default: 0, Aux: true},
	}
	m.Deps = []ir.DepMeta{
		{Name: "dep", Compute: "ghostCompute"},
		{Name: "dep", Compute: "ghostCompute"},
	}
	ds := VerifyPass.Run(m)
	wantFinding(t, ds, "verify", Error, "default index 5 out of [0,3)")
	wantFinding(t, ds, "verify", Error, "getValue function nope is not defined")
	wantFinding(t, ds, "verify", Error, "non-evaluable opcode extern")
	wantFinding(t, ds, "verify", Error, "declares size 2 but 1 value names")
	wantFinding(t, ds, "verify", Error, "variant impl1 is not defined")
	wantFinding(t, ds, "verify", Error, "aux tradeoff d does not record its original")
	wantFinding(t, ds, "verify", Error, "compute function ghostCompute is not defined")
	wantFinding(t, ds, "verify", Error, "state dependence dep declared twice")
}

func TestVerifyCloneCongruence(t *testing.T) {
	_, m := lower(t, goodSource)
	aux := m.Deps[0].AuxCompute
	if aux == "" || aux == m.Deps[0].Compute {
		t.Fatalf("expected a distinct aux clone, got %q", aux)
	}
	// Tamper with the clone: the congruence check must notice.
	f := m.Functions[aux]
	for i := range f.Instrs {
		if f.Instrs[i].Op == ir.StateWrite {
			f.Instrs[i].Name = "SomebodyElsesState"
		}
	}
	wantFinding(t, VerifyPass.Run(m), "verify", Error, "aux clone diverges from original")

	// A length mismatch is reported as a single congruence error.
	f.Instrs = f.Instrs[:len(f.Instrs)-1]
	wantFinding(t, VerifyPass.Run(m), "verify", Error, "instrs, original")
}

func TestEffectsAuxForeignWrite(t *testing.T) {
	_, m := lower(t, goodSource)
	aux := m.Functions[m.Deps[0].AuxCompute]
	aux.Instrs = append(aux.Instrs, ir.Instr{Op: ir.StateWrite, Name: "Global", Pos: ir.Pos{Line: 30}})
	ds := EffectsPass.Run(m)
	wantFinding(t, ds, "effects", Error, "writes state Global", "speculative start state")
}

func TestEffectsAuxForeignReadThroughCallee(t *testing.T) {
	_, m := lower(t, goodSource)
	// Bury the foreign read two calls deep: the dataflow must find it
	// transitively and name the actual offending instruction.
	m.AddFunction(&ir.Function{Name: "leaf", Instrs: []ir.Instr{
		{Op: ir.StateRead, Name: "OtherModel", Pos: ir.Pos{Line: 41, Col: 7}},
	}})
	m.AddFunction(&ir.Function{Name: "mid", Instrs: []ir.Instr{{Op: ir.Call, Callee: "leaf"}}})
	aux := m.Functions[m.Deps[0].AuxCompute]
	aux.Instrs = append(aux.Instrs, ir.Instr{Op: ir.Call, Callee: "mid"})
	ds := EffectsPass.Run(m)
	wantFinding(t, ds, "effects", Error, "reads foreign state OtherModel", "func leaf", "41:7")
}

func TestEffectsWindowViolation(t *testing.T) {
	_, m := lower(t, goodSource)
	aux := m.Functions[m.Deps[0].AuxCompute]
	aux.Instrs = append(aux.Instrs, ir.Instr{Op: ir.InputRead, Index: 5})
	ds := EffectsPass.Run(m)
	wantFinding(t, ds, "effects", Error, "reads input 5 positions back", "window of 2")
}

func TestEffectSetsFixpointOnCycle(t *testing.T) {
	m := ir.NewModule()
	m.AddFunction(&ir.Function{Name: "a", Instrs: []ir.Instr{
		{Op: ir.Call, Callee: "b"},
		{Op: ir.StateRead, Name: "x"},
	}})
	m.AddFunction(&ir.Function{Name: "b", Instrs: []ir.Instr{
		{Op: ir.Call, Callee: "a"},
		{Op: ir.StateWrite, Name: "y"},
		{Op: ir.InputRead, Index: 3},
	}})
	sets := effectSets(m)
	for _, fn := range []string{"a", "b"} {
		s := sets[fn]
		if got := s.readVars(); len(got) != 1 || got[0] != "x" {
			t.Fatalf("%s reads = %v, want [x]", fn, got)
		}
		if got := s.writeVars(); len(got) != 1 || got[0] != "y" {
			t.Fatalf("%s writes = %v, want [y]", fn, got)
		}
		if s.MaxInput != 3 {
			t.Fatalf("%s max input = %d, want 3", fn, s.MaxInput)
		}
	}
}

func TestLints(t *testing.T) {
	m := ir.NewModule()
	m.AddFunction(&ir.Function{Name: "gv", Instrs: []ir.Instr{
		{Op: ir.Param, Index: 0}, {Op: ir.Ret, Args: []int{0}},
	}})
	m.AddFunction(&ir.Function{Name: "variant0", Instrs: []ir.Instr{
		{Op: ir.Param, Index: 0}, {Op: ir.Ret, Args: []int{0}},
	}})
	m.AddFunction(&ir.Function{Name: "variant1", Instrs: []ir.Instr{{Op: ir.Extern}}})
	m.AddFunction(&ir.Function{Name: "orphan", Instrs: []ir.Instr{
		{Op: ir.Placeholder, Tradeoff: "t_orphaned"},
	}})
	m.AddFunction(&ir.Function{Name: "compute", Instrs: []ir.Instr{
		{Op: ir.Placeholder, Tradeoff: "t_funcs"},
	}})
	m.Tradeoffs = []ir.TradeoffMeta{
		{Name: "t_unused", Kind: tradeoff.Constant, GetValue: "gv", Size: 4, Default: 0, Aux: true, ClonedFrom: "x"},
		{Name: "t_orphaned", Kind: tradeoff.Constant, GetValue: "gv", Size: 4, Default: 0, Aux: true, ClonedFrom: "x"},
		{Name: "t_single", Kind: tradeoff.Constant, GetValue: "gv", Size: 1, Default: 0, Aux: true, ClonedFrom: "x"},
		{Name: "t_funcs", Kind: tradeoff.Function, GetValue: "gv", Size: 2, Default: 0, Aux: true, ClonedFrom: "x",
			ValueNames: []string{"variant0", "variant1"}},
	}
	m.Deps = []ir.DepMeta{{Name: "d", Compute: "compute", State: "S"}}
	ds := LintsPass.Run(m)
	wantFinding(t, ds, "lints", Warning, "t_unused is never referenced")
	wantFinding(t, ds, "lints", Warning, "t_orphaned is referenced only from unreachable code", "orphan")
	wantFinding(t, ds, "lints", Warning, "t_single has a single value")
	wantFinding(t, ds, "lints", Error, "variants disagree in signature", "variant0", "variant1")
	// t_funcs is referenced from the reachable compute: no unused/
	// unreachable finding may name it.
	for _, d := range ds {
		if d.Var == "t_funcs" && strings.Contains(d.Msg, "referenced") {
			t.Fatalf("false positive on live tradeoff: %s", d)
		}
	}
}

func TestSourceLints(t *testing.T) {
	src := `
tradeoff TO_dead {
    kind constant;
    values 1..4;
    default 0;
}
tradeoff TO_one {
    kind constant;
    values 7..7;
    default 0;
}
statedep d {
    input I;
    state S;
    output O;
    compute f uses TO_one;
}
`
	fo, err := frontend.Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	ds := sourceLints(fo)
	wantFinding(t, ds, "srclint", Warning, "TO_dead is not used by any statedep")
	wantFinding(t, ds, "srclint", Warning, "TO_one declares a single value")
	wantFinding(t, ds, "srclint", Warning, "statedep d uses tradeoffs but declares no compare")
	// Positions must point at the declarations.
	for _, d := range ds {
		if d.Var == "TO_dead" && d.Pos.Line != 2 {
			t.Fatalf("TO_dead lint at line %d, want 2", d.Pos.Line)
		}
	}
}

func TestCheckReportsErrors(t *testing.T) {
	m := ir.NewModule()
	m.AddFunction(&ir.Function{Name: "f", Instrs: []ir.Instr{{Op: ir.Call, Callee: "ghost"}}})
	err := Check(m)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Check = %v, want error naming ghost", err)
	}
}

// TestDeclarationFaultsReportedOnce: a compiled program's declaration faults
// (a knob with one value, a value listed twice, a dependence declared twice)
// are reported by the source lints alone, under the declaration's own name;
// the IR passes over the rows the mid-end lowered them to stay silent. A
// module with no source (an .ir.json input) still gets them from the IR
// passes.
func TestDeclarationFaultsReportedOnce(t *testing.T) {
	src := `
tradeoff TO_one {
    kind constant;
    values 7..7;
    default 0;
}
tradeoff TO_prec {
    kind type;
    values half, half, double;
    default 2;
}
statedep track {
    input I;
    state S;
    output O;
    compute f uses TO_one, TO_prec;
    compare close;
    window 1;
}
statedep track {
    input I;
    state S;
    output O;
    compute g uses TO_one, TO_prec;
    compare close;
    window 1;
}
`
	fo, m := lower(t, src)
	ds := AnalyzeProgram(fo, m)
	wantFinding(t, ds, "srclint", Warning, "TO_one declares a single value")
	wantFinding(t, ds, "srclint", Warning, "TO_prec lists value half more than once")
	wantFinding(t, ds, "srclint", Error, "statedep track already declared")
	for _, d := range ds {
		if d.Pass != "srclint" && (strings.Contains(d.Msg, "single value") ||
			strings.Contains(d.Msg, "more than once") || strings.Contains(d.Msg, "declared twice")) {
			t.Errorf("an IR pass reports a fault the source lints reported: %s", d)
		}
	}
	ds = Analyze(m)
	wantFinding(t, ds, "lints", Warning, "has a single value")
	wantFinding(t, ds, "lints", Warning, "more than once")
	wantFinding(t, ds, "verify", Error, "state dependence track declared twice")
}
