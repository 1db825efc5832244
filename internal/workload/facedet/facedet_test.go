package facedet

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

func TestInputsFixed(t *testing.T) {
	a, b := GenFrames(10, false), GenFrames(10, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestBadTrainingFaceStatic(t *testing.T) {
	good := GenFrames(30, false)
	bad := GenFrames(30, true)
	if good[0].DetCenter.Dist(good[29].DetCenter) < 5 {
		t.Fatal("normal face should move")
	}
	if bad[0].DetCenter.Dist(bad[29].DetCenter) > 5 {
		t.Fatal("bad-training face should be static")
	}
}

func TestTrackingFollowsFace(t *testing.T) {
	w := New()
	res := w.RunOriginal(1, 30).(Result)
	frames := GenFrames(30, false)
	for i := 5; i < 30; i++ {
		// Box center = mean of corners.
		var cx, cy float64
		for _, c := range res.Boxes[i].Corners {
			cx += c.X / 4
			cy += c.Y / 4
		}
		dx := cx - frames[i].DetCenter.X
		dy := cy - frames[i].DetCenter.Y
		if dx*dx+dy*dy > 9 {
			t.Fatalf("frame %d: tracker %v,%v far from detection %v", i, cx, cy, frames[i].DetCenter)
		}
	}
}

func TestNondeterministicAcrossSeeds(t *testing.T) {
	w := New()
	if w.RunOriginal(1, 15).Distance(w.RunOriginal(2, 15)) == 0 {
		t.Fatal("identical outputs across seeds")
	}
}

func TestBoostedImprovesQuality(t *testing.T) {
	w := New()
	oracle := w.RunOracle(20)
	var base, boosted float64
	for seed := uint64(0); seed < 5; seed++ {
		base += w.RunOriginal(seed, 20).Distance(oracle)
		boosted += w.RunBoosted(seed, 20, 4).Distance(oracle)
	}
	if boosted >= base {
		t.Fatalf("boost did not help: %v vs %v", boosted, base)
	}
}

func TestSTATSSpeculationSucceeds(t *testing.T) {
	w := New()
	matches, aborts := 0, 0
	for seed := uint64(0); seed < 6; seed++ {
		_, st := w.RunSTATS(seed, 24, workload.SpecOptions{
			UseAux: true, GroupSize: 6, Window: 4, RedoMax: 3, Rollback: 3, Workers: 4,
		})
		matches += st.Matches
		aborts += st.Aborts
	}
	if matches == 0 {
		t.Fatal("aux never matched")
	}
	if aborts > matches {
		t.Fatalf("aborts %d dominate matches %d", aborts, matches)
	}
}

func TestSTATSPreservesQuality(t *testing.T) {
	w := New()
	oracle := w.RunOracle(24)
	var maxOrig float64
	for seed := uint64(0); seed < 5; seed++ {
		if d := w.RunOriginal(seed, 24).Distance(oracle); d > maxOrig {
			maxOrig = d
		}
	}
	for seed := uint64(0); seed < 4; seed++ {
		res, st := w.RunSTATS(seed, 24, workload.SpecOptions{
			UseAux: true, GroupSize: 6, Window: 4, RedoMax: 2, Rollback: 2, Workers: 4,
		})
		if d := res.Distance(oracle); d > 3*maxOrig {
			t.Fatalf("seed %d: distance %v exceeds band %v (stats %+v)", seed, d, maxOrig, st)
		}
	}
}

func TestDescriptor(t *testing.T) {
	d := New().Desc()
	if d.Name != "facedet" || d.OriginalLOC != 606472 {
		t.Fatal("basics")
	}
	if len(d.TradeoffLOC) != 6 || len(d.Tradeoffs) != 4 {
		t.Fatalf("tradeoff counts: %d, %d", len(d.TradeoffLOC), len(d.Tradeoffs))
	}
	if d.ComparisonLOC != 29 {
		t.Fatal("comparison LOC")
	}
}

func TestCostModelVectorizedOriginal(t *testing.T) {
	m := New().CostModel(40, workload.SpecOptions{Window: 2})
	if m.InnerWidth > 4 {
		t.Fatalf("facedet's original TLP is mostly vectorization; thread width %d too wide", m.InnerWidth)
	}
	if m.InvocationWork != 1 {
		t.Fatalf("default work: %v", m.InvocationWork)
	}
	if m.RedoGain <= 0.5 {
		t.Fatalf("redo acceptance too low at window 2: %v", m.RedoGain)
	}
}

// TestCloneIsolatesCompute: a compute on a Clone leaves the source bitwise
// unchanged, and the auxiliary code returns a state nothing else can reach
// (workloadtest.Isolation) — what the engine's copies rely on.
func TestCloneIsolatesCompute(t *testing.T) {
	w := New()
	p := w.resolve(workload.SpecOptions{}, true)
	if err := workloadtest.Isolation(computeOutput(p), auxCode(w.resolve(workload.SpecOptions{}, false)), cloneState, initialState(p, rng.New(1)), GenFrames(16, false)); err != nil {
		t.Fatal(err)
	}
}

// stepLoop is the measured body of BenchmarkStep and of its allocation
// ceiling: one particle-filter step at the default tradeoffs with the given
// number of noise rounds, chained over the frames.
func stepLoop(noiseRounds int) func() {
	p := New().resolve(workload.SpecOptions{}, true)
	p.noiseRounds = noiseRounds
	st := initialState(p, rng.New(1))
	frames := GenFrames(64, false)
	r := rng.New(2)
	i := 0
	return func() {
		st = step(r, p, st, frames[i%len(frames)])
		i++
	}
}

func BenchmarkStep(b *testing.B) {
	body := stepLoop(New().resolve(workload.SpecOptions{}, true).noiseRounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// TestStepAllocations: a step allocates nothing, whatever the number of noise
// rounds — its weights and spare particle buffer are recycled scratch, and the
// set comes home to the array it was handed — warm and right after two garbage
// collections (workloadtest.NoAllocs).
func TestStepAllocations(t *testing.T) {
	for _, rounds := range []int{3, 4} {
		if err := workloadtest.NoAllocs(func() func() { return stepLoop(rounds) }, 100); err != nil {
			t.Fatalf("a step at %d noise rounds: %v", rounds, err)
		}
	}
}

// TestStepScratchIsPrivate: the recycled weights and spare buffer belong to one
// call (workloadtest.Scratch) at an odd and an even number of noise rounds —
// an odd count leaves the set in the recycled buffer until step copies it home —
// and a step that keeps the particle count returns the array it was handed.
// Every third chain starts narrower and every third wider than the tradeoff,
// so its first step re-samples the set into a new array.
func TestStepScratchIsPrivate(t *testing.T) {
	for _, rounds := range []int{3, 4} {
		p := New().resolve(workload.SpecOptions{}, true)
		p.noiseRounds = rounds
		kernel := func(r *rng.Source, f Frame, st State) State {
			kept := len(st.particles) == p.particles
			handed := &st.particles[0]
			out := step(r, p, st, f)
			if kept && &out.particles[0] != handed {
				t.Errorf("%d rounds: a step returned another array than the one it was handed", rounds)
			}
			return out
		}
		states := make([]State, 8)
		for k := range states {
			q := p
			q.particles = []int{p.particles, p.particles / 2, 2 * p.particles}[k%3]
			states[k] = initialState(q, rng.New(uint64(k)))
		}
		if err := workloadtest.Scratch(kernel, cloneState, states, GenFrames(12, false)); err != nil {
			t.Fatalf("%d rounds: %v", rounds, err)
		}
	}
}

// TestDeclarationStatesProgram holds facedet.stats equal to the program
// (workloadtest.Declaration).
func TestDeclarationStatesProgram(t *testing.T) {
	if err := workloadtest.Declaration[Frame, State](New().Desc(), stateOps().MatchAny != nil, nil); err != nil {
		t.Fatal(err)
	}
}
