// Stream clustering: a by-construction state dependence on the public API.
//
// An online k-median clusterer consumes a point stream; whether a point
// opens a new center is a randomized decision over the current solution —
// the solution update is the state dependence. Because the stream is
// stationary, a solution the auxiliary code builds from a window of recent
// points is a state the nondeterministic original producer could have
// produced, so no comparison function is needed (the paper's streamcluster
// case): speculation always commits.
//
// The example also autotunes the runtime knobs against real wall-clock
// time with stats.Tune.
//
// Run with:
//
//	go run ./examples/streamclustering
package main

import (
	"fmt"
	"math"

	"repro/stats"
)

const (
	dim           = 3
	pointsPerItem = 32
	items         = 64
	maxCenters    = 8
)

type point [dim]float64

type batch struct {
	Points []point
}

type solution struct {
	Centers []point
	Weights []float64
	Cost    float64
}

func cloneSolution(s solution) solution {
	c := solution{
		Centers: append([]point(nil), s.Centers...),
		Weights: append([]float64(nil), s.Weights...),
		Cost:    s.Cost,
	}
	return c
}

func sqDist(a, b point) float64 {
	sum := 0.0
	for d := 0; d < dim; d++ {
		diff := a[d] - b[d]
		sum += diff * diff
	}
	return sum
}

func addPoint(r *stats.Rand, s *solution, p point) {
	if len(s.Centers) == 0 {
		s.Centers = append(s.Centers, p)
		s.Weights = append(s.Weights, 1)
		s.Cost = 1
		return
	}
	best, bi := math.Inf(1), 0
	for i, c := range s.Centers {
		if d := sqDist(c, p); d < best {
			best, bi = d, i
		}
	}
	if len(s.Centers) < maxCenters && r.Float64() < math.Min(1, best/math.Max(s.Cost, 1e-9)) {
		s.Centers = append(s.Centers, p)
		s.Weights = append(s.Weights, 1)
	} else {
		w := s.Weights[bi]
		for d := 0; d < dim; d++ {
			s.Centers[bi][d] = (s.Centers[bi][d]*w + p[d]) / (w + 1)
		}
		s.Weights[bi] = w + 1
	}
	s.Cost = 0.95*s.Cost + 0.05*best*4
}

func genStream() []batch {
	// Five well-separated components, deterministic pseudo-noise.
	centers := [5]point{{0, 0, 0}, {8, 0, 0}, {0, 8, 0}, {0, 0, 8}, {8, 8, 8}}
	bs := make([]batch, items)
	k := 0
	for i := range bs {
		bs[i].Points = make([]point, pointsPerItem)
		for j := range bs[i].Points {
			c := centers[(i*pointsPerItem+j)%5]
			for d := 0; d < dim; d++ {
				k++
				bs[i].Points[j][d] = c[d] + math.Sin(float64(k)*12.9898)*1.1
			}
		}
	}
	return bs
}

func main() {
	inputs := genStream()

	// The solution handed to compute belongs to the call: it is updated in
	// place, and the runtime copies (cloneSolution) where it needs a copy.
	compute := func(r *stats.Rand, b batch, s solution) (int, solution) {
		for _, p := range b.Points {
			addPoint(r, &s, p)
		}
		// Quality estimation of the current solution — the expensive
		// part of the real benchmark (repeated nearest-center scans).
		est := 0.0
		for pass := 0; pass < 60; pass++ {
			for _, p := range b.Points {
				best := math.Inf(1)
				for _, c := range s.Centers {
					if d := sqDist(c, p); d < best {
						best = d
					}
				}
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

	build := func(o stats.Options) ([]int, solution, stats.RunStats) {
		sd := stats.NewStateDependence(inputs, solution{}, compute)
		sd.SetAuxiliary(aux)
		sd.SetStateOps(cloneSolution, nil) // by-construction acceptance
		sd.Configure(o)
		return sd.Run()
	}

	// Autotune the runtime knobs against real wall-clock time.
	res := stats.Tune(nil, stats.TimedBenchmark(func(o stats.Options, _ []int64) {
		build(o)
	}), 60, 11)

	fmt.Printf("autotuned over %d configurations\n", res.Evaluations)
	fmt.Printf("best: aux=%v group=%d window=%d workers=%d (speedup %.2fx over the serial baseline)\n",
		res.Options.UseAux, res.Options.GroupSize, res.Options.Window, res.Options.Workers, res.Speedup())

	counts, final, st := build(res.Options)
	fmt.Printf("clustered %d batches in %d groups; matches %d, aborts %d\n",
		len(counts), st.Groups, st.Matches, st.Aborts)
	fmt.Printf("final solution: %d centers\n", len(final.Centers))
	for i, c := range final.Centers {
		fmt.Printf("  center %d at (%.1f, %.1f, %.1f) weight %.0f\n", i, c[0], c[1], c[2], final.Weights[i])
	}
}
