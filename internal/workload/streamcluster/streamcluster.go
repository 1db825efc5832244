// Package streamcluster reproduces the PARSEC streamcluster benchmark
// (§4.2): online k-median clustering of a point stream. Candidate centroids
// are considered one by one; whether a candidate opens a new center is a
// randomized decision that depends on the current solution, and the
// solution update serializes the stream — the state dependence is "on
// updating the status of the current solution".
//
// Tradeoffs (§4.2): the data types of three variables used to estimate the
// quality of the current solution, plus the maximum and minimum number of
// clusters.
//
// No state-comparison function is needed: a solution built by the auxiliary
// code from a window of recent points is by construction a solution the
// nondeterministic original producer could have reached.
package streamcluster

import (
	"math"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
	"repro/internal/workload/streamdata"
)

// pointsPerInput is the number of stream points one invocation of the
// state-dependence target consumes.
const pointsPerInput = 16

// Batch is one input: a slice of the stream.
type Batch struct {
	Points []streamdata.Point
}

// center is one open facility.
type center struct {
	pos    [streamdata.Dim]float64
	weight float64
}

// Solution is the state: the current set of open centers and the running
// facility cost estimate.
type Solution struct {
	Centers      []center
	FacilityCost float64
}

func cloneSolution(s Solution) Solution {
	c := Solution{Centers: make([]center, len(s.Centers)), FacilityCost: s.FacilityCost}
	copy(c.Centers, s.Centers)
	return c
}

// params resolve the five algorithmic tradeoffs.
type params struct {
	prec        [3]tradeoff.Precision
	maxClusters int
	minClusters int
}

// Result is the final clustering of the whole stream; its Distance is the
// difference of Davies-Bouldin indices (§4.2).
type Result struct {
	Clustering quality.Clustering
}

// Distance implements workload.Result.
func (r Result) Distance(ref workload.Result) float64 {
	return quality.DaviesBouldinDiff(r.Clustering, ref.(Result).Clustering)
}

// W is the streamcluster workload.
type W struct{}

// New returns the workload.
func New() *W { return &W{} }

// Desc implements workload.Workload with Table 1's streamcluster row.
func (*W) Desc() workload.Descriptor {
	return workload.Descriptor{
		Name:        "streamcluster",
		OriginalLOC: 1770,
		NumDeps:     2,
		Tradeoffs: []tradeoff.T{
			tradeoff.New("GainPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("CostPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("WeightPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("MaxClusters", tradeoff.Constant, tradeoff.IntRange{Lo: 5, Hi: 20, Default: 5}),
			tradeoff.New("MinClusters", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 5, Default: 2}),
		},
		TradeoffLOC:       [][2]int{{80, 215}, {10, 20}, {60, 174}, {0, 15}, {0, 15}, {0, 15}, {0, 15}},
		ComparisonLOC:     0,
		SupportsSTATS:     true,
		VariabilitySource: "race",
	}
}

func (w *W) resolve(o workload.SpecOptions, defaults bool) params {
	ts := w.Desc().Tradeoffs
	var p params
	for i := 0; i < 3; i++ {
		p.prec[i] = o.Value(ts, i, defaults).(tradeoff.Precision)
	}
	p.maxClusters = int(o.Value(ts, 3, defaults).(int64))
	p.minClusters = int(o.Value(ts, 4, defaults).(int64))
	if p.minClusters > p.maxClusters {
		p.minClusters = p.maxClusters
	}
	return p
}

// addPoint performs the randomized facility-location step for one point:
// open a new center with probability proportional to the (precision-
// quantized) connection gain, otherwise assign to the nearest center.
func addPoint(r *rng.Source, p params, sol *Solution, pt streamdata.Point) {
	if len(sol.Centers) == 0 {
		sol.Centers = append(sol.Centers, center{pos: pt.X, weight: 1})
		return
	}
	best := math.Inf(1)
	bestIdx := 0
	for i := range sol.Centers {
		d := p.prec[0].Quantize(streamdata.SqDist(sol.Centers[i].pos, pt.X))
		if d < best {
			best = d
			bestIdx = i
		}
	}
	cost := p.prec[1].Quantize(sol.FacilityCost)
	if cost <= 0 {
		cost = 1
	}
	if r.Float64() < math.Min(1, best/cost) {
		sol.Centers = append(sol.Centers, center{pos: pt.X, weight: 1})
	} else {
		c := &sol.Centers[bestIdx]
		w := p.prec[2].Quantize(c.weight)
		for d := 0; d < streamdata.Dim; d++ {
			c.pos[d] = (c.pos[d]*w + pt.X[d]) / (w + 1)
		}
		c.weight = w + 1
	}
	// Track the running facility cost so openings stay calibrated.
	sol.FacilityCost = 0.97*sol.FacilityCost + 0.03*best*4
	// Consolidate down to the cluster budget.
	for len(sol.Centers) > p.maxClusters {
		mergeClosest(sol)
	}
}

// mergeClosest merges the two nearest centers (weighted mean).
func mergeClosest(sol *Solution) {
	n := len(sol.Centers)
	bi, bj := 0, 1
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := streamdata.SqDist(sol.Centers[i].pos, sol.Centers[j].pos); d < best {
				best, bi, bj = d, i, j
			}
		}
	}
	a, b := sol.Centers[bi], sol.Centers[bj]
	total := a.weight + b.weight
	for d := 0; d < streamdata.Dim; d++ {
		a.pos[d] = (a.pos[d]*a.weight + b.pos[d]*b.weight) / total
	}
	a.weight = total
	sol.Centers[bi] = a
	sol.Centers = append(sol.Centers[:bj], sol.Centers[bj+1:]...)
}

// computeOutput consumes one batch, updating the solution it is handed in
// place (core.Compute: the state belongs to the call); the output is the
// number of open centers (a progress indicator).
func computeOutput(p params) core.Compute[Batch, Solution, int] {
	return func(r *rng.Source, b Batch, sol Solution) (int, Solution) {
		for _, pt := range b.Points {
			addPoint(r, p, &sol, pt)
		}
		return len(sol.Centers), sol
	}
}

// auxCode builds a speculative solution by clustering only the window's
// recent points at the auxiliary tradeoffs. The stream is stationary, so
// the window's solution is statistically interchangeable with the prefix's.
// It builds on the private copy of the initial solution the engine hands it.
func auxCode(p params) core.Aux[Batch, Solution] {
	return func(r *rng.Source, sol Solution, recent []Batch) Solution {
		sol.FacilityCost = 1
		for _, b := range recent {
			for _, pt := range b.Points {
				addPoint(r, p, &sol, pt)
			}
		}
		return sol
	}
}

// stateOps: deep clone, by-construction acceptance (nil MatchAny).
// Without a MatchAny the engine never consults the fingerprint; it
// documents the solution's structural identity (center count and
// facility cost) and keeps the hash-first wiring uniform across the
// suite.
func stateOps() core.StateOps[Solution] {
	return core.StateOps[Solution]{
		Clone: cloneSolution,
		Fingerprint: func(s Solution) uint64 {
			return mathx.NewHash64().Int(len(s.Centers)).Float(s.FacilityCost).Sum()
		},
	}
}

// numShards is the slot count of the reservations formulation: the
// stream is dealt round-robin over this many independent sub-solutions,
// so batches landing on different shards have disjoint footprints and
// commit in the same round.
const numShards = 4

// ShardBatch is one cell of the sharded chain the reservations protocol
// clusters: batch Index routed to shard Index % numShards.
type ShardBatch struct {
	Index  int
	Shard  int
	Points []streamdata.Point
}

// ShardBatches deals the stream's batches round-robin over the shards.
func ShardBatches(size int, badTraining bool) []ShardBatch {
	bs := batches(size, badTraining)
	cells := make([]ShardBatch, len(bs))
	for i, b := range bs {
		cells[i] = ShardBatch{Index: i, Shard: i % numShards, Points: b.Points}
	}
	return cells
}

// solutionsEqual compares two shard solutions structurally (the Touched
// oracle hook needs a value diff, not pointer identity).
func solutionsEqual(a, b Solution) bool {
	if a.FacilityCost != b.FacilityCost || len(a.Centers) != len(b.Centers) {
		return false
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			return false
		}
	}
	return true
}

// shardedDependence builds the reservation-ready dependence: state is one
// Solution per shard and a cell's footprint is exactly its shard's slot.
func shardedDependence(p params) *core.Dependence[ShardBatch, []Solution, int] {
	compute := func(r *rng.Source, in ShardBatch, st []Solution) (int, []Solution) {
		sol := st[in.Shard]
		for _, pt := range in.Points {
			addPoint(r, p, &sol, pt)
		}
		st[in.Shard] = sol
		return len(sol.Centers), st
	}
	ops, reserve := core.SlotOps(func(in ShardBatch) []int { return []int{in.Shard} }, cloneSolution, solutionsEqual)
	return core.New[ShardBatch, []Solution, int](compute, nil, ops).WithReserve(reserve)
}

// runSharded clusters the stream through one reservations engine run over
// the sharded chain, then deterministically merges the shard solutions
// down to the cluster budget for the final assignment.
func runSharded(seed uint64, size int, p params, o workload.SpecOptions) (workload.Result, core.Stats) {
	init := make([]Solution, numShards)
	for i := range init {
		init[i] = Solution{FacilityCost: 1}
	}
	dep := shardedDependence(p)
	_, final, st := dep.Run(ShardBatches(size, o.BadTraining), init, o.CoreOptions(seed))
	merged := Solution{FacilityCost: 1}
	for _, sol := range final {
		merged.Centers = append(merged.Centers, sol.Centers...)
	}
	for len(merged.Centers) > p.maxClusters {
		mergeClosest(&merged)
	}
	return Result{Clustering: finalClustering(merged, size, o.BadTraining)}, st
}

// Points returns the stream points a run at size consumes (shared,
// read-only: see streamdata.Stream).
func Points(size int, badTraining bool) []streamdata.Point {
	return streamdata.Stream(size*pointsPerInput, badTraining)
}

// batches splits the stream into inputs.
func batches(size int, badTraining bool) []Batch {
	pts := Points(size, badTraining)
	bs := make([]Batch, size)
	for i := range bs {
		bs[i] = Batch{Points: pts[i*pointsPerInput : (i+1)*pointsPerInput]}
	}
	return bs
}

// finalClustering assigns every point of the size-input stream to its
// nearest final center. Points is the stream's shared coordinate view.
func finalClustering(sol Solution, size int, badTraining bool) quality.Clustering {
	pts := Points(size, badTraining)
	c := quality.Clustering{
		Points: streamdata.Coords(len(pts), badTraining),
		Assign: make([]int, len(pts)),
	}
	assignNearest(sol, pts, c.Assign)
	return c
}

// assignNearest sets assign[i] to the index of the center nearest pts[i]:
// the lowest of equally near ones, and 0 when no distance is below +Inf (no
// centers, or only NaN distances). It is the program's one pass over the
// whole stream, shared by the final assignment and the refinement.
func assignNearest(sol Solution, pts []streamdata.Point, assign []int) {
	pos := make([][streamdata.Dim]float64, len(sol.Centers))
	for j := range sol.Centers {
		pos[j] = sol.Centers[j].pos
	}
	for i := range pts {
		x := &pts[i].X
		best, bi := math.Inf(1), 0
		for j := range pos {
			if d := streamdata.SqDist(pos[j], *x); d < best {
				best, bi = d, j
			}
		}
		assign[i] = bi
	}
}

// RunOriginal implements workload.Workload.
func (w *W) RunOriginal(seed uint64, size int) workload.Result {
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), 0, false)
}

func (w *W) run(seed uint64, size int, p params, refine int, badTraining bool) Result {
	bs := batches(size, badTraining)
	r := rng.New(seed)
	sol := Solution{FacilityCost: 1}
	compute := computeOutput(p)
	for _, b := range bs {
		_, sol = compute(r.Split(), b, sol)
	}
	sol = refineSolution(sol, Points(size, badTraining), refine)
	return Result{Clustering: finalClustering(sol, size, badTraining)}
}

// refineSolution runs Lloyd iterations over the full dataset — the
// "iterate more over the same dataset" quality mode of Fig. 16. Iterating
// also consolidates the solution toward the stream's natural component
// count before refining, as the offline k-median phase of the original
// benchmark does.
func refineSolution(sol Solution, pts []streamdata.Point, iters int) Solution {
	if iters <= 0 {
		return sol
	}
	for len(sol.Centers) > streamdata.NumComponents {
		mergeClosest(&sol)
	}
	assign := make([]int, len(pts))
	for it := 0; it < iters; it++ {
		sums := make([][streamdata.Dim]float64, len(sol.Centers))
		counts := make([]float64, len(sol.Centers))
		assignNearest(sol, pts, assign)
		for i, bi := range assign {
			for d := 0; d < streamdata.Dim; d++ {
				sums[bi][d] += pts[i].X[d]
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

// RunOracle implements workload.Workload: generous cluster budget and
// Lloyd refinement to convergence, fixed seed.
func (w *W) RunOracle(size int) workload.Result {
	p := w.resolve(workload.SpecOptions{}, true)
	p.maxClusters = streamdata.NumComponents
	p.minClusters = streamdata.NumComponents
	return w.run(0x0AC1E, size, p, 25, false)
}

// RunBoosted implements workload.Workload (Fig. 16).
func (w *W) RunBoosted(seed uint64, size int, factor float64) workload.Result {
	iters := int(factor) - 1
	if iters < 0 {
		iters = 0
	}
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), iters, false)
}

// RunSTATS implements workload.Workload. Under core.ProtocolReservations
// the stream runs the sharded formulation: numShards independent
// sub-solutions, one state slot each, so same-round batches on distinct
// shards commit together (see shardedDependence).
func (w *W) RunSTATS(seed uint64, size int, o workload.SpecOptions) (workload.Result, core.Stats) {
	def := w.resolve(o, true)
	if o.Protocol == core.ProtocolReservations {
		return runSharded(seed, size, def, o)
	}
	aux := w.resolve(o, false)
	bs := batches(size, o.BadTraining)
	dep := core.New(computeOutput(def), auxCode(aux), stateOps())
	_, final, st := dep.Run(bs, Solution{FacilityCost: 1}, o.CoreOptions(seed))
	return Result{Clustering: finalClustering(final, size, o.BadTraining)}, st
}

// CostModel implements workload.Workload. The paper observes super-linear
// effects for this benchmark (better L1 locality, faster convergence when
// candidate order changes, §4.3); the model reflects the original's serial
// centroid-add sections limiting its TLP.
func (w *W) CostModel(size int, o workload.SpecOptions) workload.Model {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	unit := func(p params) float64 {
		precCost := (p.prec[0].CostFactor() + p.prec[1].CostFactor() + p.prec[2].CostFactor()) / 3
		// Cost grows with the cluster budget (nearest-center scans).
		return precCost * (0.6 + 0.4*float64(p.maxClusters)/10.0)
	}
	win := o.Window
	if win < 1 {
		win = 1
	}
	return workload.Model{
		NumInputs:       size,
		InvocationWork:  unit(def),
		AuxWork:         float64(win) * unit(aux),
		InnerWidth:      16,
		InnerSerialFrac: 0.10, // solution updates serialize the original
		SyncWork:        0.04,
		ValidateWork:    0.001,
		MatchProb:       1, // by-construction acceptance
		RedoGain:        0,
	}
}
