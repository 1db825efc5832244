package stats_test

import (
	"fmt"
	"math"

	"repro/stats"
)

// Stream clustering, a by-construction state dependence. An online
// k-median clusterer consumes a point stream; whether a point opens a new
// center is a randomized decision over the current solution — the solution
// update is the state dependence. Because the stream is stationary, a
// solution the auxiliary code builds from a window of recent points is a
// state the nondeterministic original producer could have produced, so no
// comparison function is needed (the paper's streamcluster case):
// speculation always commits.

const (
	dim           = 3
	pointsPerItem = 32
	items         = 64
	maxCenters    = 8
)

type point [dim]float64

type batch struct{ Points []point }

type solution struct {
	Centers []point
	Weights []float64
	Cost    float64
}

func cloneSolution(s solution) solution {
	return solution{
		Centers: append([]point(nil), s.Centers...),
		Weights: append([]float64(nil), s.Weights...),
		Cost:    s.Cost,
	}
}

func sqDist(a, b point) float64 {
	sum := 0.0
	for d := range a {
		diff := a[d] - b[d]
		sum += diff * diff
	}
	return sum
}

func nearest(s solution, p point) (float64, int) {
	best, bi := math.Inf(1), 0
	for i, c := range s.Centers {
		if d := sqDist(c, p); d < best {
			best, bi = d, i
		}
	}
	return best, bi
}

func addPoint(r *stats.Rand, s *solution, p point) {
	if len(s.Centers) == 0 {
		s.Centers = append(s.Centers, p)
		s.Weights = append(s.Weights, 1)
		s.Cost = 1
		return
	}
	best, bi := nearest(*s, p)
	if len(s.Centers) < maxCenters && r.Float64() < math.Min(1, best/math.Max(s.Cost, 1e-9)) {
		s.Centers = append(s.Centers, p)
		s.Weights = append(s.Weights, 1)
	} else {
		w := s.Weights[bi]
		for d := range p {
			s.Centers[bi][d] = (s.Centers[bi][d]*w + p[d]) / (w + 1)
		}
		s.Weights[bi] = w + 1
	}
	s.Cost = 0.95*s.Cost + 0.05*best*4
}

// pointStream draws five well-separated components with deterministic
// pseudo-noise.
func pointStream() []batch {
	centers := [5]point{{0, 0, 0}, {8, 0, 0}, {0, 8, 0}, {0, 0, 8}, {8, 8, 8}}
	bs := make([]batch, items)
	k := 0
	for i := range bs {
		bs[i].Points = make([]point, pointsPerItem)
		for j := range bs[i].Points {
			c := centers[(i*pointsPerItem+j)%5]
			for d := range c {
				k++
				bs[i].Points[j][d] = c[d] + math.Sin(float64(k)*12.9898)*1.1
			}
		}
	}
	return bs
}

// ExampleStateDependence_streamClustering clusters a point stream with no
// comparison function: SetStateOps gets a nil MatchFunc, so every
// speculative solution is accepted by construction and no group aborts.
func ExampleStateDependence_streamClustering() {
	// The solution handed to compute belongs to the call: it is updated in
	// place, and the runtime copies (cloneSolution) where it needs a copy.
	compute := func(r *stats.Rand, b batch, s solution) (int, solution) {
		for _, p := range b.Points {
			addPoint(r, &s, p)
		}
		// Quality estimation of the current solution — the expensive part
		// of the real benchmark (repeated nearest-center scans).
		est := 0.0
		for pass := 0; pass < 60; pass++ {
			for _, p := range b.Points {
				best, _ := nearest(s, p)
				est += best
			}
		}
		s.Cost = 0.99*s.Cost + 1e-6*est
		return len(s.Centers), s
	}
	// The initial solution handed to aux is already a private copy.
	aux := func(r *stats.Rand, s solution, recent []batch) solution {
		for _, b := range recent {
			for _, p := range b.Points {
				addPoint(r, &s, p)
			}
		}
		return s
	}

	sd := stats.NewStateDependence(pointStream(), solution{}, compute)
	sd.SetAuxiliary(aux)
	sd.SetStateOps(cloneSolution, nil) // by-construction acceptance
	sd.Configure(stats.Options{
		UseAux: true, GroupSize: 16, Window: 4, RedoMax: 2, Rollback: 2, Workers: 4, Seed: 11,
	})
	counts, final, st := sd.Run()

	fmt.Printf("clustered %d batches in %d groups; matches %d, aborts %d\n",
		len(counts), st.Groups, st.Matches, st.Aborts)
	fmt.Printf("final solution: %d centers\n", len(final.Centers))
	for i, c := range final.Centers {
		fmt.Printf("  center %d at (%.1f, %.1f, %.1f) weight %.0f\n", i, c[0], c[1], c[2], final.Weights[i])
	}
	// Output:
	// clustered 64 batches in 4 groups; matches 3, aborts 0
	// final solution: 8 centers
	//   center 0 at (-0.1, -0.0, 8.1) weight 128
	//   center 1 at (7.5, 7.6, 7.8) weight 64
	//   center 2 at (0.2, 0.2, 0.1) weight 128
	//   center 3 at (8.7, 0.6, 0.5) weight 58
	//   center 4 at (-0.7, 7.1, -0.9) weight 52
	//   center 5 at (7.4, -0.7, -0.7) weight 70
	//   center 6 at (8.8, 8.8, 8.7) weight 64
	//   center 7 at (0.1, 8.2, 0.3) weight 76
}
