package streamcluster

import (
	"math"
	"testing"

	"repro/internal/quality"
	"repro/internal/rng"
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

// rolledSqDist is streamdata.SqDist as the rolled loop it was.
func rolledSqDist(a, b [streamdata.Dim]float64) float64 {
	sum := 0.0
	for d := 0; d < streamdata.Dim; d++ {
		diff := a[d] - b[d]
		sum += diff * diff
	}
	return sum
}

// scanAssign is the final assignment as the per-point scan it was: Assign[i]
// is written whenever a nearer center turns up, so a tie keeps the lower
// index and a point no distance improves on keeps 0.
func scanAssign(sol Solution, pts []streamdata.Point) []int {
	assign := make([]int, len(pts))
	for i, pt := range pts {
		best := math.Inf(1)
		for j := range sol.Centers {
			if d := rolledSqDist(sol.Centers[j].pos, pt.X); d < best {
				best = d
				assign[i] = j
			}
		}
	}
	return assign
}

// scanRefine is refineSolution as it was, with its own nearest-center scan.
func scanRefine(sol Solution, pts []streamdata.Point, iters int) Solution {
	if iters > 0 {
		for len(sol.Centers) > streamdata.NumComponents {
			mergeClosest(&sol)
		}
	}
	for it := 0; it < iters; it++ {
		sums := make([][streamdata.Dim]float64, len(sol.Centers))
		counts := make([]float64, len(sol.Centers))
		for _, pt := range pts {
			best := math.Inf(1)
			bi := 0
			for j := range sol.Centers {
				if d := rolledSqDist(sol.Centers[j].pos, pt.X); d < best {
					best, bi = d, j
				}
			}
			for d := 0; d < streamdata.Dim; d++ {
				sums[bi][d] += pt.X[d]
			}
			counts[bi]++
		}
		for j := range sol.Centers {
			if counts[j] == 0 {
				continue
			}
			for d := 0; d < streamdata.Dim; d++ {
				sol.Centers[j].pos[d] = sums[j][d] / counts[j]
			}
			sol.Centers[j].weight = counts[j]
		}
	}
	return sol
}

// TestNearestScanMatchesReference checks the final assignment and the
// refinement against the scans they replaced, bit for bit, with 1, 5, 10 and
// 20 centers drawn from the stream, with duplicate centers (a tie goes to the
// lowest index) and with a NaN center (never nearest; alone, every point
// goes to center 0).
func TestNearestScanMatchesReference(t *testing.T) {
	const size = 64
	pts := Points(size, false)
	for _, k := range []int{1, 5, 10, 20} {
		plain := Solution{FacilityCost: 1}
		for j := 0; j < k; j++ {
			plain.Centers = append(plain.Centers, center{pos: pts[j*37+5].X, weight: float64(j + 1)})
		}
		dup := cloneSolution(plain)
		for j := 1; j < k; j += 2 {
			dup.Centers[j].pos = dup.Centers[j-1].pos
		}
		nan := cloneSolution(plain)
		nan.Centers[k/2].pos[1] = math.NaN()
		for _, c := range []struct {
			name string
			sol  Solution
		}{{"plain", plain}, {"duplicates", dup}, {"nan", nan}} {
			got := finalClustering(c.sol, size, false).Assign
			want := scanAssign(c.sol, pts)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d centers, %s: point %d assigned %d, the scan assigns %d", k, c.name, i, got[i], want[i])
				}
			}
			for _, iters := range []int{1, 3} {
				got := refineSolution(cloneSolution(c.sol), pts, iters)
				want := scanRefine(cloneSolution(c.sol), pts, iters)
				if len(got.Centers) != len(want.Centers) {
					t.Fatalf("%d centers, %s, %d iterations: %d centers refined, the scan keeps %d", k, c.name, iters, len(got.Centers), len(want.Centers))
				}
				for j := range want.Centers {
					g, w := got.Centers[j], want.Centers[j]
					same := math.Float64bits(g.weight) == math.Float64bits(w.weight)
					for d := range w.pos {
						same = same && math.Float64bits(g.pos[d]) == math.Float64bits(w.pos[d])
					}
					if !same {
						t.Fatalf("%d centers, %s, %d iterations: center %d is %+v, the scan gives %+v", k, c.name, iters, j, g, w)
					}
				}
			}
		}
	}
}

var clusteringSink quality.Clustering

// BenchmarkFinalClustering assigns the 1024-input stream to 10 centers, the
// default cluster budget.
func BenchmarkFinalClustering(b *testing.B) {
	const size = 1024
	pts := Points(size, false)
	sol := Solution{FacilityCost: 1}
	for j := 0; j < 10; j++ {
		sol.Centers = append(sol.Centers, center{pos: pts[j*97].X, weight: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusteringSink = finalClustering(sol, size, false)
	}
}

// BenchmarkCompute runs the sequential compute over the 1024 batches of the
// benchmark's streamcluster case.
func BenchmarkCompute(b *testing.B) {
	p := New().resolve(workload.SpecOptions{}, true)
	bs := batches(1024, false)
	compute := computeOutput(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.New(1)
		sol := Solution{FacilityCost: 1}
		for _, in := range bs {
			_, sol = compute(r.Split(), in, sol)
		}
	}
}
