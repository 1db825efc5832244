package fluidanimate

import (
	"testing"

	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

func TestInputsFixed(t *testing.T) {
	a, b := GenSteps(10, false), GenSteps(10, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs", i)
		}
	}
}

func TestParticlesStayInBox(t *testing.T) {
	w := New()
	res := w.RunOriginal(1, 30).(Result)
	for i, p := range res.Final {
		if p.X < 0 || p.X > boxSize || p.Y < 0 || p.Y > boxSize || p.Z < 0 || p.Z > boxSize {
			t.Fatalf("particle %d escaped: %+v", i, p)
		}
	}
}

func TestFluidEvolves(t *testing.T) {
	w := New()
	short := w.RunOriginal(1, 2).(Result)
	long := w.RunOriginal(1, 30).(Result)
	if short.Distance(long) == 0 {
		t.Fatal("fluid did not evolve between 2 and 30 steps")
	}
}

func TestNondeterministicAcrossSeeds(t *testing.T) {
	w := New()
	if w.RunOriginal(1, 20).Distance(w.RunOriginal(2, 20)) == 0 {
		t.Fatal("identical outputs across seeds")
	}
}

func TestOracleDeterministic(t *testing.T) {
	w := New()
	if w.RunOracle(15).Distance(w.RunOracle(15)) != 0 {
		t.Fatal("oracle not deterministic")
	}
}

func TestBoostedReducesJitterEffect(t *testing.T) {
	w := New()
	oracle := w.RunOracle(20)
	var base, boosted float64
	for seed := uint64(0); seed < 5; seed++ {
		base += w.RunOriginal(seed, 20).Distance(oracle)
		boosted += w.RunBoosted(seed, 20, 16).Distance(oracle)
	}
	if boosted >= base {
		t.Fatalf("boost did not help: %v vs %v", boosted, base)
	}
}

func TestSpeculationAlwaysAborts(t *testing.T) {
	// §4.8: "every time the main state dependence of fluidanimate was
	// satisfied with auxiliary code, the STATS runtime aborted". The
	// time-step chain does not forget, so the aux state never matches.
	w := New()
	for seed := uint64(0); seed < 5; seed++ {
		_, st := w.RunSTATS(seed, 24, workload.SpecOptions{
			UseAux: true, GroupSize: 6, Window: 4, RedoMax: 2, Rollback: 2, Workers: 4,
		})
		if st.Aborts == 0 {
			t.Fatalf("seed %d: speculation survived (stats %+v)", seed, st)
		}
		if st.Matches != 0 {
			t.Fatalf("seed %d: unexpected match (stats %+v)", seed, st)
		}
	}
}

func TestSTATSOutputStillCorrect(t *testing.T) {
	// Despite the aborts, the fallback must preserve output quality.
	w := New()
	oracle := w.RunOracle(20)
	var maxOrig float64
	for seed := uint64(0); seed < 4; seed++ {
		if d := w.RunOriginal(seed, 20).Distance(oracle); d > maxOrig {
			maxOrig = d
		}
	}
	res, _ := w.RunSTATS(9, 20, workload.SpecOptions{
		UseAux: true, GroupSize: 5, Window: 3, RedoMax: 1, Rollback: 2, Workers: 4,
	})
	if d := res.Distance(oracle); d > 3*maxOrig {
		t.Fatalf("fallback output too far from oracle: %v vs band %v", d, maxOrig)
	}
}

func TestSqrtVersions(t *testing.T) {
	for _, x := range []float64{0.25, 1, 2, 9, 100} {
		exact := sqrtExact.apply(x)
		n2 := sqrtNewton.apply(x)
		n1 := sqrtCoarse.apply(x)
		e2 := abs(n2 - exact)
		e1 := abs(n1 - exact)
		if e2 > e1+1e-12 {
			t.Fatalf("newton2 worse than newton1 at %v: %v vs %v", x, e2, e1)
		}
	}
	if sqrtCoarse.apply(0) != 0 || sqrtNewton.apply(-1) != 0 {
		t.Fatal("non-positive inputs")
	}
	if !(sqrtCoarse.cost() < sqrtNewton.cost() && sqrtNewton.cost() < sqrtExact.cost()) {
		t.Fatal("sqrt costs must be ordered")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestDescriptor(t *testing.T) {
	d := New().Desc()
	if d.Name != "fluidanimate" || len(d.TradeoffLOC) != 9 || len(d.Tradeoffs) != 7 {
		t.Fatal("descriptor")
	}
	if d.ComparisonLOC != 5 {
		t.Fatal("comparison LOC")
	}
}

func TestCostModelNeverMatches(t *testing.T) {
	m := New().CostModel(30, workload.SpecOptions{Window: 4})
	if m.MatchProb != 0 {
		t.Fatalf("fluidanimate must never match: %v", m.MatchProb)
	}
	if m.InnerWidth < 8 {
		t.Fatalf("original TLP should be wide: %d", m.InnerWidth)
	}
	if m.InvocationWork != 1 {
		t.Fatalf("default work: %v", m.InvocationWork)
	}
}

// TestCloneIsolatesCompute: a compute on a Clone leaves the source bitwise
// unchanged, and the auxiliary code returns a state nothing else can reach
// (workloadtest.Isolation) — what the engine's copies rely on.
func TestCloneIsolatesCompute(t *testing.T) {
	p := New().resolve(workload.SpecOptions{}, true)
	if err := workloadtest.Isolation(computeOutput(p), auxCode(p), cloneState, initialState(), GenSteps(16, false)); err != nil {
		t.Fatal(err)
	}
}
