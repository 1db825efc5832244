package streamcluster

import (
	"math"
	"testing"

	"repro/internal/quality"
	"repro/internal/workload"
	"repro/internal/workload/streamdata"
	"repro/internal/workload/workloadtest"
)

func TestClusteringFindsStructure(t *testing.T) {
	// The online clustering must recover something close to the true
	// mixture: its Davies-Bouldin index should be near the oracle's.
	w := New()
	oracle := w.RunOracle(32).(Result)
	got := w.RunOriginal(1, 32).(Result)
	oracleDB := quality.DaviesBouldin(oracle.Clustering)
	gotDB := quality.DaviesBouldin(got.Clustering)
	if oracleDB <= 0 {
		t.Fatalf("oracle DB: %v", oracleDB)
	}
	if gotDB > 4*oracleDB {
		t.Fatalf("clustering too poor: DB %v vs oracle %v", gotDB, oracleDB)
	}
}

func TestNondeterministicAcrossSeeds(t *testing.T) {
	w := New()
	a := w.RunOriginal(1, 16)
	b := w.RunOriginal(2, 16)
	if a.Distance(b) == 0 {
		t.Fatal("identical clusterings across seeds")
	}
}

func TestCentersBounded(t *testing.T) {
	w := New()
	p := w.resolve(workload.SpecOptions{}, true)
	res, _ := w.RunSTATS(1, 24, workload.SpecOptions{UseAux: true, GroupSize: 6, Window: 2, Workers: 4})
	maxAssign := 0
	for _, a := range res.(Result).Clustering.Assign {
		if a > maxAssign {
			maxAssign = a
		}
	}
	if maxAssign >= p.maxClusters {
		t.Fatalf("assignment uses %d clusters, budget %d", maxAssign+1, p.maxClusters)
	}
}

func TestSTATSCommitsByConstruction(t *testing.T) {
	w := New()
	_, st := w.RunSTATS(2, 24, workload.SpecOptions{UseAux: true, GroupSize: 6, Window: 2, Workers: 4})
	if st.Aborts != 0 {
		t.Fatalf("aborts: %d", st.Aborts)
	}
	if st.Matches != 3 {
		t.Fatalf("matches: %d", st.Matches)
	}
}

func TestSTATSPreservesQuality(t *testing.T) {
	w := New()
	oracle := w.RunOracle(32)
	var orig, stats float64
	for seed := uint64(0); seed < 4; seed++ {
		orig += w.RunOriginal(seed, 32).Distance(oracle)
		res, _ := w.RunSTATS(seed, 32, workload.SpecOptions{UseAux: true, GroupSize: 8, Window: 3, Workers: 4})
		stats += res.Distance(oracle)
	}
	if stats > 4*orig+0.4 {
		t.Fatalf("STATS quality loss: %v vs original %v", stats, orig)
	}
}

func TestBoostedImprovesQuality(t *testing.T) {
	w := New()
	oracle := w.RunOracle(32)
	var base, boosted float64
	for seed := uint64(0); seed < 4; seed++ {
		base += w.RunOriginal(seed, 32).Distance(oracle)
		boosted += w.RunBoosted(seed, 32, 8).Distance(oracle)
	}
	if boosted >= base {
		t.Fatalf("refinement did not improve quality: %v vs %v", boosted, base)
	}
}

func TestMergeClosest(t *testing.T) {
	sol := Solution{Centers: []center{
		{pos: [streamdata.Dim]float64{0, 0, 0, 0}, weight: 1},
		{pos: [streamdata.Dim]float64{10, 0, 0, 0}, weight: 1},
		{pos: [streamdata.Dim]float64{0.2, 0, 0, 0}, weight: 3},
	}}
	mergeClosest(&sol)
	if len(sol.Centers) != 2 {
		t.Fatalf("centers after merge: %d", len(sol.Centers))
	}
	// The two near centers merged to their weighted mean: (0*1+0.2*3)/4.
	found := false
	for _, c := range sol.Centers {
		if c.weight == 4 && math.Abs(c.pos[0]-0.15) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged center wrong: %+v", sol.Centers)
	}
}

func TestCloneSolutionIndependent(t *testing.T) {
	a := Solution{Centers: []center{{weight: 1}}, FacilityCost: 2}
	b := cloneSolution(a)
	b.Centers[0].weight = 9
	if a.Centers[0].weight != 1 {
		t.Fatal("clone aliases centers")
	}
}

func TestDescriptor(t *testing.T) {
	d := New().Desc()
	if d.Name != "streamcluster" || d.NumDeps != 2 {
		t.Fatal("basics")
	}
	if len(d.TradeoffLOC) != 7 || len(d.Tradeoffs) != 5 {
		t.Fatalf("tradeoff counts: %d, %d", len(d.TradeoffLOC), len(d.Tradeoffs))
	}
	if d.VariabilitySource != "race" {
		t.Fatal("variability source")
	}
}

func TestCostModelDefaultsNormalized(t *testing.T) {
	m := New().CostModel(32, workload.SpecOptions{Window: 2})
	if m.InvocationWork != 1 {
		t.Fatalf("default invocation work: %v", m.InvocationWork)
	}
	if m.MatchProb != 1 {
		t.Fatal("by-construction match prob")
	}
}

// TestCloneIsolatesCompute: a compute on a Clone leaves the source bitwise
// unchanged, and the auxiliary code returns a state nothing else can reach
// (workloadtest.Isolation) — what the engine's copies rely on.
func TestCloneIsolatesCompute(t *testing.T) {
	p := New().resolve(workload.SpecOptions{}, true)
	if err := workloadtest.Isolation(computeOutput(p), auxCode(p), cloneSolution, Solution{FacilityCost: 1}, batches(16, false)); err != nil {
		t.Fatal(err)
	}
}
