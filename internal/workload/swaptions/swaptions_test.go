package swaptions

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
	"repro/internal/workload/workloadtest"
)

func rngFor(seed uint64) *rng.Source { return rng.New(seed) }

func TestPortfolioFixedAcrossRuns(t *testing.T) {
	a := portfolio(10, false)
	b := portfolio(10, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instrument %d differs", i)
		}
	}
}

func TestBadTrainingParametersUnrealistic(t *testing.T) {
	good := portfolio(5, false)
	bad := portfolio(5, true)
	if bad[0].Maturity <= good[0].Maturity {
		t.Fatal("bad-training maturities should be implausibly long")
	}
	if bad[0].Strike <= good[0].Strike {
		t.Fatal("bad-training strikes should be far out of market")
	}
}

func TestPricesPositiveAndFinite(t *testing.T) {
	w := New()
	res := w.RunOriginal(1, 16).(Result)
	if len(res.Prices) != realRunSwaptions {
		t.Fatalf("prices: %d", len(res.Prices))
	}
	for i, p := range res.Prices {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("price %d = %v", i, p)
		}
	}
}

func TestMonteCarloConverges(t *testing.T) {
	// More trials bring the estimate closer to the oracle.
	w := New()
	oracle := w.RunOracle(16)
	var base, boosted float64
	for seed := uint64(0); seed < 5; seed++ {
		base += w.RunOriginal(seed, 16).Distance(oracle)
		boosted += w.RunBoosted(seed, 16, 8).Distance(oracle)
	}
	if boosted >= base {
		t.Fatalf("8x trials did not converge: base %v, boosted %v", base, boosted)
	}
}

func TestNondeterministicAcrossSeeds(t *testing.T) {
	w := New()
	a := w.RunOriginal(1, 8)
	b := w.RunOriginal(2, 8)
	if a.Distance(b) == 0 {
		t.Fatal("identical prices across seeds")
	}
}

func TestVariabilityIsLow(t *testing.T) {
	// swaptions has the lowest output variability in Fig. 2; with
	// 16 blocks × 64 trials the relative spread should be small.
	w := New()
	oracle := w.RunOracle(16)
	for seed := uint64(0); seed < 4; seed++ {
		d := w.RunOriginal(seed, 16).Distance(oracle)
		if d > 0.2 {
			t.Fatalf("seed %d: relative price difference %v too large", seed, d)
		}
	}
}

func TestSTATSAlwaysCommits(t *testing.T) {
	// By-construction acceptance: no comparison function, no aborts.
	w := New()
	res, st := w.RunSTATS(3, 16, workload.SpecOptions{
		UseAux: true, GroupSize: 4, Window: 2, Workers: 4,
	})
	if st.Aborts != 0 {
		t.Fatalf("aborts: %d", st.Aborts)
	}
	if st.Matches == 0 {
		t.Fatal("no speculative commits")
	}
	if len(res.(Result).Prices) != realRunSwaptions {
		t.Fatal("missing prices")
	}
}

func TestSTATSPreservesQuality(t *testing.T) {
	w := New()
	oracle := w.RunOracle(16)
	var orig, stats float64
	for seed := uint64(0); seed < 5; seed++ {
		orig += w.RunOriginal(seed, 16).Distance(oracle)
		res, _ := w.RunSTATS(seed, 16, workload.SpecOptions{
			UseAux: true, GroupSize: 4, Window: 3, Workers: 4,
		})
		stats += res.Distance(oracle)
	}
	// The speculative prefix substitutes a window-sized estimate for the
	// earlier blocks, so allow a modest factor over the original spread.
	if stats > 4*orig {
		t.Fatalf("STATS quality loss too large: %v vs original %v", stats, orig)
	}
}

func TestAuxCountsTrialsCorrectly(t *testing.T) {
	s := portfolio(1, false)[0]
	p := params{pathPrec: 2, discPrec: 2}
	aux := auxCode(s, p)
	st := aux(rngFor(1), PriceState{}, []Block{{Index: 6}, {Index: 7}})
	// The following group starts at block 8: 8*trialsPerBlock trials.
	if st.Count != float64(8*trialsPerBlock) {
		t.Fatalf("aux count: %v", st.Count)
	}
	if st.Mean() <= 0 {
		t.Fatalf("aux mean: %v", st.Mean())
	}
}

func TestAuxEmptyWindowReturnsInit(t *testing.T) {
	s := portfolio(1, false)[0]
	aux := auxCode(s, params{pathPrec: 2, discPrec: 2})
	init := PriceState{Sum: 5, Count: 2}
	if got := aux(rngFor(1), init, nil); got != init {
		t.Fatalf("aux with empty window: %+v", got)
	}
}

func TestCostModelOuterParallel(t *testing.T) {
	w := New()
	m := w.CostModel(20, workload.SpecOptions{Window: 2})
	if !m.OuterParallel || m.OuterTasks != 34 {
		t.Fatalf("outer model: %+v", m)
	}
	if m.MatchProb != 1 {
		t.Fatalf("match prob: %v", m.MatchProb)
	}
	if m.InvocationWork != 1 {
		t.Fatalf("default work: %v", m.InvocationWork)
	}
	// Half precision on both variables must be cheaper.
	cheap := w.CostModel(20, workload.SpecOptions{Window: 2, TradeoffIdx: []int64{0, 0}})
	if cheap.AuxWork >= m.AuxWork {
		t.Fatal("cheap precisions not cheaper")
	}
}

func TestDescriptor(t *testing.T) {
	d := New().Desc()
	if d.Name != "swaptions" || !d.SupportsSTATS {
		t.Fatal("basics")
	}
	if len(d.TradeoffLOC) != 4 || len(d.Tradeoffs) != 2 {
		t.Fatalf("tradeoff counts: %d LOC cols, %d algorithmic", len(d.TradeoffLOC), len(d.Tradeoffs))
	}
	if d.ComparisonLOC != 0 {
		t.Fatal("swaptions needs no comparison function")
	}
}

func TestPriceStateMean(t *testing.T) {
	if (PriceState{}).Mean() != 0 {
		t.Fatal("empty mean")
	}
	if (PriceState{Sum: 10, Count: 4}).Mean() != 2.5 {
		t.Fatal("mean")
	}
}

// TestCloneIsolatesCompute: a compute on a Clone leaves the source bitwise
// unchanged, and the auxiliary code returns a state nothing else can reach
// (workloadtest.Isolation) — what the engine's copies rely on.
func TestCloneIsolatesCompute(t *testing.T) {
	s, p := portfolio(1, false)[0], New().resolve(workload.SpecOptions{}, true)
	if err := workloadtest.Isolation(computeOutput(s, p), auxCode(s, p), stateOps().Clone, PriceState{}, blocks(16)); err != nil {
		t.Fatal(err)
	}
}

// TestDeclarationStatesProgram holds swaptions.stats equal to the program
// and its flat chain's footprints (workloadtest.Declaration).
func TestDeclarationStatesProgram(t *testing.T) {
	_, ops := flatSlots()
	resv := &workloadtest.Reservation[FlatBlock, []PriceState]{Ops: ops, Initial: make([]PriceState, realRunSwaptions), Inputs: FlatBlocks(64, realRunSwaptions)}
	if err := workloadtest.Declaration(New().Desc(), stateOps().MatchAny != nil, resv); err != nil {
		t.Fatal(err)
	}
}
