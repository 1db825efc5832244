package bodytrack

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

func TestInputsFixedAcrossRuns(t *testing.T) {
	a := GenFrames(10, false)
	b := GenFrames(10, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs between generations", i)
		}
	}
}

func TestBadTrainingInputsAreStatic(t *testing.T) {
	frames := GenFrames(20, false)
	bad := GenFrames(20, true)
	// Normal subject moves; bad-training subject stays near the origin.
	moved := frames[0].Obs[0].Dist(frames[19].Obs[0])
	badMoved := bad[0].Obs[0].Dist(bad[19].Obs[0])
	if moved < 2 {
		t.Fatalf("normal subject barely moved: %v", moved)
	}
	if badMoved > 1 {
		t.Fatalf("bad-training subject moved: %v", badMoved)
	}
}

func TestTrackingAccuracy(t *testing.T) {
	// The filter must actually track: estimated positions should be close
	// to the (noisy observations of the) true positions.
	w := New()
	res := w.RunOriginal(1, 24).(Result)
	frames := GenFrames(24, false)
	var worst float64
	for i := 4; i < len(res.Frames); i++ { // allow burn-in
		for j := 0; j < numParts; j++ {
			d := res.Frames[i].Positions[j].Dist(frames[i].Obs[j])
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 1.5 {
		t.Fatalf("tracking error too large: %v", worst)
	}
}

func TestNondeterminismAcrossSeeds(t *testing.T) {
	w := New()
	a := w.RunOriginal(1, 12)
	b := w.RunOriginal(2, 12)
	if d := a.Distance(b); d == 0 {
		t.Fatal("different seeds produced identical output; benchmark is deterministic")
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	w := New()
	a := w.RunOriginal(5, 12)
	b := w.RunOriginal(5, 12)
	if d := a.Distance(b); d != 0 {
		t.Fatalf("same seed differed: %v", d)
	}
}

func TestOracleMoreAccurateThanOriginal(t *testing.T) {
	// Oracle runs at quality-maximizing tradeoffs; a default run should
	// be measurably farther from a second oracle-grade run than the
	// oracles are from each other.
	w := New()
	oracle := w.RunOracle(16)
	orig := w.RunOriginal(3, 16)
	if d := orig.Distance(oracle); d <= 0 {
		t.Fatalf("original at zero distance from oracle: %v", d)
	}
}

func TestBoostedImprovesQuality(t *testing.T) {
	w := New()
	oracle := w.RunOracle(16)
	base := 0.0
	boosted := 0.0
	// Average over seeds to damp particle-filter noise.
	for seed := uint64(0); seed < 5; seed++ {
		base += w.RunOriginal(seed, 16).Distance(oracle)
		boosted += w.RunBoosted(seed, 16, 4).Distance(oracle)
	}
	if boosted >= base {
		t.Fatalf("boosting did not improve quality: base %v, boosted %v", base, boosted)
	}
}

func TestSTATSPreservesOutputQuality(t *testing.T) {
	w := New()
	oracle := w.RunOracle(24)
	// Original output variability across seeds sets the acceptable band.
	var origDists []float64
	for seed := uint64(0); seed < 6; seed++ {
		origDists = append(origDists, w.RunOriginal(seed, 24).Distance(oracle))
	}
	maxOrig := 0.0
	for _, d := range origDists {
		if d > maxOrig {
			maxOrig = d
		}
	}
	// STATS runs must stay within a modest factor of the original band
	// (the paper guarantees no loss in output quality via its checks).
	for seed := uint64(0); seed < 4; seed++ {
		res, st := w.RunSTATS(seed, 24, workload.SpecOptions{
			UseAux: true, GroupSize: 6, Window: 4, RedoMax: 2, Rollback: 2, Workers: 4,
		})
		d := res.Distance(oracle)
		if d > 3*maxOrig+1e-9 {
			t.Fatalf("seed %d: STATS distance %v exceeds original band %v (stats %+v)", seed, d, maxOrig, st)
		}
	}
}

func TestSTATSSpeculationMostlySucceeds(t *testing.T) {
	// The paper's hypothesis: the auxiliary code usually produces an
	// acceptable state for bodytrack. Across seeds, matches must
	// dominate aborts.
	w := New()
	matches, aborts := 0, 0
	for seed := uint64(0); seed < 8; seed++ {
		_, st := w.RunSTATS(seed, 24, workload.SpecOptions{
			UseAux: true, GroupSize: 6, Window: 4, RedoMax: 3, Rollback: 3, Workers: 4,
		})
		matches += st.Matches
		aborts += st.Aborts
	}
	if matches == 0 {
		t.Fatal("auxiliary code never matched")
	}
	if aborts > matches {
		t.Fatalf("aborts (%d) dominate matches (%d)", aborts, matches)
	}
}

func TestSTATSOutputLengthPreserved(t *testing.T) {
	w := New()
	res, st := w.RunSTATS(1, 20, workload.SpecOptions{
		UseAux: true, GroupSize: 5, Window: 3, RedoMax: 2, Rollback: 2, Workers: 2,
	})
	if got := len(res.(Result).Frames); got != 20 {
		t.Fatalf("outputs: %d (stats %+v)", got, st)
	}
}

func TestZeroWindowHurtsSpeculation(t *testing.T) {
	// With no recent frames, the auxiliary state is the diffuse prior
	// and should match far less often.
	w := New()
	okWide, okZero := 0, 0
	for seed := uint64(0); seed < 6; seed++ {
		_, wide := w.RunSTATS(seed, 24, workload.SpecOptions{
			UseAux: true, GroupSize: 6, Window: 4, RedoMax: 2, Rollback: 2,
		})
		_, zero := w.RunSTATS(seed, 24, workload.SpecOptions{
			UseAux: true, GroupSize: 6, Window: 0, RedoMax: 2, Rollback: 2,
		})
		okWide += wide.Matches
		okZero += zero.Matches
	}
	if okZero >= okWide {
		t.Fatalf("window 0 matched as often as window 4: %d vs %d", okZero, okWide)
	}
}

func TestCostModelShape(t *testing.T) {
	w := New()
	def := workload.SpecOptions{Window: 2}
	m := w.CostModel(64, def)
	if m.NumInputs != 64 {
		t.Fatalf("inputs: %d", m.NumInputs)
	}
	if math.Abs(m.InvocationWork-1) > 1e-9 {
		t.Fatalf("default invocation work should be 1, got %v", m.InvocationWork)
	}
	if m.MatchProb != 0 {
		t.Fatalf("triangulating acceptance cannot match on the first try: %v", m.MatchProb)
	}
	if m.RedoGain <= 0 || m.RedoGain > 1 {
		t.Fatalf("redo gain: %v", m.RedoGain)
	}
	// Cheaper aux tradeoffs shrink aux work.
	cheap := w.CostModel(64, workload.SpecOptions{Window: 2, TradeoffIdx: []int64{0, 0, 0}})
	if cheap.AuxWork >= m.AuxWork {
		t.Fatalf("cheap aux not cheaper: %v vs %v", cheap.AuxWork, m.AuxWork)
	}
	// Wider windows raise match probability and aux cost.
	wide := w.CostModel(64, workload.SpecOptions{Window: 6})
	if wide.RedoGain <= m.RedoGain {
		t.Fatal("wider window should match more")
	}
	if wide.AuxWork <= m.AuxWork {
		t.Fatal("wider window should cost more aux work")
	}
}

func TestDescriptorConsistency(t *testing.T) {
	d := New().Desc()
	if d.Name != "bodytrack" || !d.SupportsSTATS {
		t.Fatal("descriptor basics")
	}
	// Table 1: 5 tradeoff columns (3 algorithmic + 2 thread counts).
	if len(d.TradeoffLOC) != 5 {
		t.Fatalf("tradeoff LOC columns: %d", len(d.TradeoffLOC))
	}
	if len(d.Tradeoffs) != 3 {
		t.Fatalf("algorithmic tradeoffs: %d", len(d.Tradeoffs))
	}
	if d.ComparisonLOC != 19 {
		t.Fatalf("comparison LOC: %d", d.ComparisonLOC)
	}
}

func TestEncodedTradeoffsLimit(t *testing.T) {
	// With EncodedTradeoffs=1, only the first tradeoff follows the
	// requested index; the rest resolve to defaults.
	w := New()
	o := workload.SpecOptions{TradeoffIdx: []int64{0, 0, 0}, EncodedTradeoffs: 1}
	p := w.resolve(o, false)
	if p.layers != 1 {
		t.Fatalf("first tradeoff should be encoded: layers %d", p.layers)
	}
	if p.particles != 128 {
		t.Fatalf("third tradeoff should be default: particles %d", p.particles)
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
