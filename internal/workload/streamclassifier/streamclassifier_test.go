package streamclassifier

import (
	"testing"

	"repro/internal/quality"
	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

func TestClassifierLearns(t *testing.T) {
	// After the stream, predictions should beat chance substantially:
	// B³ F-score well above the ~1/k random baseline.
	w := New()
	res := w.RunOriginal(1, 32).(Result)
	score := quality.BCubed(res.Pred, res.Gold)
	if score < 0.5 {
		t.Fatalf("B3 score too low: %v", score)
	}
}

func TestOracleBeatsOriginal(t *testing.T) {
	w := New()
	oracle := w.RunOracle(32).(Result)
	orig := w.RunOriginal(1, 32).(Result)
	so := quality.BCubed(oracle.Pred, oracle.Gold)
	sg := quality.BCubed(orig.Pred, orig.Gold)
	if so < sg {
		t.Fatalf("oracle %v worse than original %v", so, sg)
	}
}

func TestNondeterministicAcrossSeeds(t *testing.T) {
	w := New()
	a := w.RunOriginal(1, 24).(Result)
	b := w.RunOriginal(2, 24).(Result)
	same := true
	for i := range a.Pred {
		if a.Pred[i] != b.Pred[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("identical predictions across seeds")
	}
}

func TestSTATSCommitsByConstruction(t *testing.T) {
	w := New()
	res, st := w.RunSTATS(1, 24, workload.SpecOptions{UseAux: true, GroupSize: 6, Window: 2, Workers: 4})
	if st.Aborts != 0 {
		t.Fatalf("aborts: %d", st.Aborts)
	}
	r := res.(Result)
	if len(r.Pred) != 24*pointsPerInput {
		t.Fatalf("predictions: %d", len(r.Pred))
	}
}

func TestSTATSPreservesQuality(t *testing.T) {
	w := New()
	var orig, stats float64
	for seed := uint64(0); seed < 4; seed++ {
		ro := w.RunOriginal(seed, 32).(Result)
		orig += quality.BCubed(ro.Pred, ro.Gold)
		rs, _ := w.RunSTATS(seed, 32, workload.SpecOptions{UseAux: true, GroupSize: 8, Window: 3, Workers: 4})
		stats += quality.BCubed(rs.(Result).Pred, rs.(Result).Gold)
	}
	// STATS scores must stay within a few points of the original's.
	if stats < orig-0.4 {
		t.Fatalf("STATS B3 sum %v vs original %v", stats, orig)
	}
}

func TestBoostedImprovesQuality(t *testing.T) {
	w := New()
	var base, boosted float64
	for seed := uint64(0); seed < 4; seed++ {
		rb := w.RunOriginal(seed, 24).(Result)
		base += quality.BCubed(rb.Pred, rb.Gold)
		rB := w.RunBoosted(seed, 24, 6).(Result)
		boosted += quality.BCubed(rB.Pred, rB.Gold)
	}
	if boosted <= base {
		t.Fatalf("warm passes did not help: %v vs %v", boosted, base)
	}
}

func TestDistanceZeroForSelf(t *testing.T) {
	w := New()
	r := w.RunOriginal(1, 16)
	if r.Distance(r) != 0 {
		t.Fatal("self distance")
	}
}

func TestCloneModelIndependent(t *testing.T) {
	var m Model
	m.Classes[0] = []prototype{{weight: 1}}
	c := cloneModel(m)
	c.Classes[0][0].weight = 9
	if m.Classes[0][0].weight != 1 {
		t.Fatal("clone aliases prototypes")
	}
}

func TestDescriptor(t *testing.T) {
	d := New().Desc()
	if d.Name != "streamclassifier" || len(d.TradeoffLOC) != 7 || len(d.Tradeoffs) != 5 {
		t.Fatal("descriptor")
	}
}

func TestCostModelDefaultsNormalized(t *testing.T) {
	m := New().CostModel(32, workload.SpecOptions{Window: 2})
	if m.InvocationWork != 1 {
		t.Fatalf("default invocation work: %v", m.InvocationWork)
	}
}

// TestCloneIsolatesCompute: a compute on a Clone leaves the source bitwise
// unchanged, and the auxiliary code returns a state nothing else can reach
// (workloadtest.Isolation) — what the engine's copies rely on.
func TestCloneIsolatesCompute(t *testing.T) {
	p := New().resolve(workload.SpecOptions{}, true)
	if err := workloadtest.Isolation(computeOutput(p), auxCode(p), cloneModel, Model{}, batches(16, false)); err != nil {
		t.Fatal(err)
	}
}
