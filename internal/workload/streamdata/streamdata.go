// Package streamdata generates the multidimensional point streams shared by
// the streamcluster and streamclassifier workloads: a fixed Gaussian
// mixture, so the stream is statistically stationary — the property that
// lets a solution built from a window of recent points stand in for the
// solution built from the whole prefix.
package streamdata

import (
	"sync"

	"repro/internal/rng"
)

// Dim is the dimensionality of stream points.
const Dim = 4

// NumComponents is the number of mixture components (the gold clustering).
const NumComponents = 5

// Point is one stream element; Label is its generating component (the gold
// class for streamclassifier, hidden from streamcluster).
type Point struct {
	X     [Dim]float64
	Label int
}

// Centers returns the mixture's true component centers.
func Centers() [NumComponents][Dim]float64 {
	var c [NumComponents][Dim]float64
	r := rng.New(0x57E4)
	for i := range c {
		for d := 0; d < Dim; d++ {
			c[i][d] = r.Range(-10, 10)
		}
	}
	return c
}

// variant memoizes one stream variant: the generator's state, the points
// drawn from it so far, one coordinate row per point aliasing its X, and the
// points' labels.
type variant struct {
	mu     sync.Mutex
	r      *rng.Source
	pts    []Point
	rows   [][]float64
	labels []int
}

// variants holds the native and the badTraining stream.
var variants [2]variant

// Stream returns the first n points of the stream. The input seed is fixed
// and the generator sequential, so every run sees the same stream and
// Stream(n) is a prefix of Stream(m) for n <= m: each variant is generated
// once per process, grown to the largest n asked for. The returned slice is
// shared by every caller and read-only. badTraining produces the §4.6
// variant: "points overlap in the multidimensional space" — every
// component collapses onto the same center, so training reveals nothing
// about cluster structure.
func Stream(n int, badTraining bool) []Point {
	pts, _, _ := cached(n, badTraining)
	return pts
}

// Coords returns the coordinates of Stream(n, badTraining) as one row per
// point. The rows alias the shared stream: read-only, like it.
func Coords(n int, badTraining bool) [][]float64 {
	_, rows, _ := cached(n, badTraining)
	return rows
}

// Labels returns the labels of Stream(n, badTraining), one per point: the
// gold clustering, shared and read-only like the stream.
func Labels(n int, badTraining bool) []int {
	_, _, labels := cached(n, badTraining)
	return labels
}

// cached grows the variant to n points and returns its first n points, rows
// and labels, capacity-limited so an append cannot reach the shared tail.
func cached(n int, badTraining bool) ([]Point, [][]float64, []int) {
	v, seed := &variants[0], uint64(0x57E5)
	if badTraining {
		v, seed = &variants[1], seed^0xBAD
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if n > len(v.pts) {
		if v.r == nil {
			v.r = rng.New(seed)
		}
		// A fresh backing array per growth: slices handed out earlier keep
		// the old one, which is never written again.
		pts := append(make([]Point, 0, n), v.pts...)
		centers := Centers()
		for i := len(pts); i < n; i++ {
			var pt Point
			pt.Label = v.r.Intn(NumComponents)
			for d := 0; d < Dim; d++ {
				center := centers[pt.Label][d]
				if badTraining {
					center = 0 // all components overlap
				}
				pt.X[d] = center + v.r.Norm()*1.2
			}
			pts = append(pts, pt)
		}
		rows := make([][]float64, n)
		labels := make([]int, n)
		for i := range rows {
			rows[i] = pts[i].X[:]
			labels[i] = pts[i].Label
		}
		v.pts, v.rows, v.labels = pts, rows, labels
	}
	return v.pts[:n:n], v.rows[:n:n], v.labels[:n:n]
}

// Memo memoizes, per stream variant, a slice derived from the stream — the
// batches a program cuts it into — grown like the stream to the longest
// asked for.
type Memo[T any] struct {
	// Build returns a fresh slice of the first n elements of a variant.
	Build func(n int, badTraining bool) []T

	variants [2]struct {
		mu sync.Mutex
		s  []T
	}
}

// Get returns the first n elements for the badTraining variant, shared by
// every caller and read-only, capacity-limited so an append cannot reach the
// shared tail. A longer n builds a fresh slice, so slices handed out earlier
// are never written again.
func (m *Memo[T]) Get(n int, badTraining bool) []T {
	v := &m.variants[0]
	if badTraining {
		v = &m.variants[1]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if n > len(v.s) {
		v.s = m.Build(n, badTraining)
	}
	return v.s[:n:n]
}

// SqDist returns the squared Euclidean distance between two points'
// coordinates, written out for Dim = 4. It adds the squared differences in
// coordinate order, ((d0²+d1²)+d2²)+d3²: the pinned program results depend
// on that order.
func SqDist(a, b [Dim]float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	d3 := a[3] - b[3]
	return d0*d0 + d1*d1 + d2*d2 + d3*d3
}
