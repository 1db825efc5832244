package stats

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/ir"
)

// brokenAuxModule builds the canonical contract violation: a dependence
// whose auxiliary clone writes a state variable other than its own
// speculative start state (through a shared helper, so the clone is still
// congruent with the original and only the effect analysis can see it).
func brokenAuxModule() *ir.Module {
	m := ir.NewModule()
	m.AddFunction(&ir.Function{Name: "flushStats", Instrs: []ir.Instr{
		{Op: ir.StateWrite, Name: "GlobalStats"},
	}})
	body := []ir.Instr{
		{Op: ir.InputRead},
		{Op: ir.StateRead, Name: "Model"},
		{Op: ir.Call, Callee: "flushStats"},
		{Op: ir.StateWrite, Name: "Model"},
	}
	m.AddFunction(&ir.Function{Name: "update", Instrs: body})
	m.AddFunction(&ir.Function{Name: "update$aux$track", Instrs: body})
	m.Deps = append(m.Deps, ir.DepMeta{
		Name: "track", Input: "Frame", State: "Model", Output: "Pose",
		Compute: "update", AuxCompute: "update$aux$track", Window: 2,
	})
	return m
}

// TestVerifyProgramGate is the static half of the regression pair: a
// program whose aux writes a non-speculative state variable is refused by
// the verification gate, which names the offending state variable, and the
// same program without the foreign write passes.
func TestVerifyProgramGate(t *testing.T) {
	prog, err := backend.Compile(brokenAuxModule(), nil)
	if err != nil {
		t.Fatalf("backend alone does not police effects, Compile must succeed: %v", err)
	}
	err = VerifyProgram(prog)
	if err == nil {
		t.Fatal("VerifyProgram accepted a program whose aux writes foreign state")
	}
	if !strings.Contains(err.Error(), "GlobalStats") {
		t.Fatalf("rejection does not name the offending state variable: %v", err)
	}
	if err := VerifyProgram(nil); err == nil {
		t.Fatal("VerifyProgram accepted a nil program")
	}

	clean := brokenAuxModule()
	for _, name := range []string{"update", "update$aux$track"} {
		f := clean.Functions[name]
		f.Instrs = slices.DeleteFunc(slices.Clone(f.Instrs), func(in ir.Instr) bool { return in.Op == ir.Call })
	}
	prog, err = backend.Compile(clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProgram(prog); err != nil {
		t.Fatalf("VerifyProgram refused a program whose aux writes only its own state: %v", err)
	}
}

// TestUnverifiedAuxCaughtByRuntimeValidation is the dynamic half: without
// the static gate, an auxiliary function that produces garbage
// speculative start states is caught by the runtime's validation — the
// mismatch path aborts the speculation — and the outputs still match the
// sequential reference because aborted groups re-execute conventionally.
func TestUnverifiedAuxCaughtByRuntimeValidation(t *testing.T) {
	inputs := make([]int, 64)
	for i := range inputs {
		inputs[i] = i + 1
	}
	compute := func(r *Rand, in, sum int) (int, int) {
		return sum + in, sum + in
	}
	reference := func() []int {
		out := make([]int, len(inputs))
		sum := 0
		for i, in := range inputs {
			sum += in
			out[i] = sum
		}
		return out
	}()

	sd := NewStateDependence(inputs, 0, compute)
	// The corrupting aux: instead of predicting the running sum from the
	// recent inputs, it invents a state no original run can match.
	sd.SetAuxiliary(func(r *Rand, init int, recent []int) int {
		return -1 << 20
	})
	sd.SetStateOps(func(s int) int { return s }, func(spec int, originals []int) bool {
		for _, o := range originals {
			if spec == o {
				return true
			}
		}
		return false
	})
	sd.Configure(Options{
		UseAux: true, GroupSize: 8, Window: 2, RedoMax: 1, Rollback: 2, Workers: 4, Seed: 1,
	})
	outs, final, st := sd.Run()

	if st.Aborts == 0 {
		t.Fatalf("corrupting aux was never caught: stats %+v", st)
	}
	if st.Matches != 0 {
		t.Fatalf("garbage speculative states matched %d times: stats %+v", st.Matches, st)
	}
	if final != reference[len(reference)-1] {
		t.Fatalf("final state %d, want %d", final, reference[len(reference)-1])
	}
	for i := range reference {
		if outs[i] != reference[i] {
			t.Fatalf("output[%d] = %d, want %d (aborted groups must re-execute conventionally)", i, outs[i], reference[i])
		}
	}
}
