package backend

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/midend"
	"repro/internal/profiler"
	"repro/internal/space"
	"repro/internal/workload"
)

const fixture = `
tradeoff TO_layers {
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
    values sqrt_exact, sqrt_newton2;
    default 0;
}

statedep track {
    input Frame;
    state Model;
    output Pos;
    compute updateModel uses TO_layers, TO_weightType, TO_sqrt;
    compare cmp;
}
`

func lower(t *testing.T) *ir.Module {
	t.Helper()
	fo, err := frontend.Translate(fixture)
	if err != nil {
		t.Fatal(err)
	}
	m, err := midend.Lower(fo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// point returns the default point of m's space with the named dimensions
// set to the given indices.
func point(t *testing.T, m *ir.Module, idx map[string]int64) space.Config {
	t.Helper()
	s, err := profiler.ModuleSpace(m)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Default()
	for name, i := range idx {
		if !s.Set(c, name, i) {
			t.Fatalf("no dimension %s", name)
		}
	}
	return c
}

// compile instantiates the fixture with the named dimensions set.
func compile(t *testing.T, idx map[string]int64) *Program {
	t.Helper()
	m := lower(t)
	p, err := Compile(m, point(t, m, idx))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDefaultInstantiation(t *testing.T) {
	p := compile(t, nil)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// layers default index 4 -> value 5.
	if got := p.Constants["TO_layers$aux$track"]; got != 5 {
		t.Fatalf("layers constant: %d", got)
	}
	// weight type default index 2 -> "double".
	if got := p.TypeBindings["v_TO_weightType"]; got != "double" {
		t.Fatalf("type binding: %q", got)
	}
	// sqrt default index 0 -> sqrt_exact.
	if got := p.Callees["TO_sqrt$aux$track"]; got != "sqrt_exact" {
		t.Fatalf("callee: %q", got)
	}
}

func TestExplicitConfig(t *testing.T) {
	p := compile(t, map[string]int64{
		"aux.TO_layers$aux$track":     0,
		"aux.TO_weightType$aux$track": 0,
		"aux.TO_sqrt$aux$track":       1,
		"track.aux":                   1,
		"track.group":                 2, // value 8
		"track.window":                2, // value 2
		"track.redo":                  1, // value 1
		"track.rollback":              1, // value 2
	})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Constants["TO_layers$aux$track"] != 1 {
		t.Fatal("layers index 0 -> 1 layer")
	}
	if p.TypeBindings["v_TO_weightType"] != "half" {
		t.Fatal("type index 0 -> half")
	}
	if p.Callees["TO_sqrt$aux$track"] != "sqrt_newton2" {
		t.Fatal("function index 1 -> sqrt_newton2")
	}
	want := workload.SpecOptions{UseAux: true, GroupSize: 8, Window: 2, RedoMax: 1, Rollback: 2}
	if ro := p.Runtime["track"]; !reflect.DeepEqual(ro, want) {
		t.Fatalf("runtime: %+v, want %+v", ro, want)
	}
}

func TestSubstitutionRewritesAuxOnly(t *testing.T) {
	p := compile(t, map[string]int64{"aux.TO_layers$aux$track": 9})
	// The aux compute's placeholder is now the constant 10.
	aux := p.Module.Functions["updateModel$aux$track"]
	found := false
	for _, in := range aux.Instrs {
		if in.Op == ir.Const && in.Value == 10 {
			found = true
		}
	}
	if !found {
		t.Fatal("aux constant not substituted")
	}
	// The original compute keeps its pinned default (5).
	orig := p.Module.Functions["updateModel"]
	for _, in := range orig.Instrs {
		if in.Op == ir.Const && in.Value == 10 {
			t.Fatal("original was rewritten by an aux tradeoff")
		}
	}
}

func TestFunctionSubstitutionRewiresCallee(t *testing.T) {
	p := compile(t, map[string]int64{"aux.TO_sqrt$aux$track": 1})
	kernel := p.Module.Functions["updateModel$kernel$aux$track"]
	found := false
	for _, in := range kernel.Instrs {
		if in.Op == ir.Call && in.Callee == "sqrt_newton2" {
			found = true
		}
	}
	if !found {
		t.Fatal("callee not rewired")
	}
}

func TestTypeSubstitutionRecordsCast(t *testing.T) {
	p := compile(t, map[string]int64{"aux.TO_weightType$aux$track": 1})
	// The type tradeoff lives in the kernel helper's aux clone.
	aux := p.Module.Functions["updateModel$kernel$aux$track"]
	found := false
	for _, in := range aux.Instrs {
		if in.Op == ir.Extern && strings.HasSuffix(in.Name, ":single") {
			found = true
		}
	}
	if !found {
		t.Fatal("re-typed variable missing cast annotation")
	}
}

func TestBadIndexRejected(t *testing.T) {
	m := lower(t)
	c := point(t, m, nil)
	c[0] = 10 // TO_layers$aux$track has 10 indices
	if _, err := Compile(m, c); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := Compile(m, c[1:]); err == nil {
		t.Fatal("a configuration of the wrong length accepted")
	}
}

func TestUseAuxWithoutAuxRejected(t *testing.T) {
	m := lower(t)
	// Break the metadata: no aux compute.
	m.Deps[0].AuxCompute = ""
	if _, err := Compile(m, point(t, m, map[string]int64{"track.aux": 1})); err == nil {
		t.Fatal("UseAux without aux code accepted")
	}
}

// TestDuplicateDependenceRejected covers a module only the vet gate would
// refuse: the front-end lowers two statedeps of one name, and the module's
// space cannot hold two blocks of one name.
func TestDuplicateDependenceRejected(t *testing.T) {
	m := lower(t)
	m.Deps = append(m.Deps, m.Deps[0])
	if _, err := Compile(m, nil); err == nil || !strings.Contains(err.Error(), "track declared twice") {
		t.Fatalf("duplicate dependence: err %v", err)
	}
}

func TestSizeIncreaseReported(t *testing.T) {
	p := compile(t, nil)
	if p.SizeIncrease <= 0 {
		t.Fatalf("size increase: %v", p.SizeIncrease)
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	m := lower(t)
	before := m.InstrCount()
	var refsBefore int
	for _, f := range m.Functions {
		refsBefore += len(f.TradeoffRefs())
	}
	if _, err := Compile(m, nil); err != nil {
		t.Fatal(err)
	}
	var refsAfter int
	for _, f := range m.Functions {
		refsAfter += len(f.TradeoffRefs())
	}
	if m.InstrCount() != before || refsAfter != refsBefore {
		t.Fatal("Compile mutated the shared IR; re-instantiation would break")
	}
}

func TestRepeatedInstantiationCheap(t *testing.T) {
	// The autotuner re-instantiates the same IR for many configurations;
	// every instantiation must be independent.
	m := lower(t)
	for idx := int64(0); idx < 10; idx++ {
		p, err := Compile(m, point(t, m, map[string]int64{"aux.TO_layers$aux$track": idx}))
		if err != nil {
			t.Fatal(err)
		}
		if p.Constants["TO_layers$aux$track"] != idx+1 {
			t.Fatalf("instantiation %d wrong", idx)
		}
	}
}
