// Package streamclassifier reproduces the classification variant of
// streamcluster the paper evaluates separately (§4.2, inputs from the loop-
// perforation study [72]): points stream past an online classifier whose
// model — per-class prototype centers — is updated after every prediction.
// The model update serializes the stream: the state dependence is on
// updating the status of the current solution.
//
// Tradeoffs mirror streamcluster's: the data types of three variables used
// in scoring, plus the maximum and minimum prototypes per class. As with
// streamcluster, no comparison function is needed: a model trained by the
// auxiliary code on a window of recent (labeled) points is a state the
// nondeterministic original producer could have reached.
package streamclassifier

import (
	_ "embed"
	"math"

	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
	"repro/internal/workload/streamdata"
)

// declaration is the program's SDI/TI declaration (Descriptor.Declaration).
//
//go:embed streamclassifier.stats
var declaration string

// pointsPerInput is the number of stream points per invocation.
const pointsPerInput = 16

// Batch is one input: a labeled slice of the stream. Offset records where
// in the stream the batch starts, so results can be assembled in order.
type Batch struct {
	Offset int
	Points []streamdata.Point
}

// prototype is one class exemplar.
type prototype struct {
	pos    [streamdata.Dim]float64
	weight float64
}

// Model is the state: per-class prototype lists.
type Model struct {
	Classes [streamdata.NumComponents][]prototype
}

// emptyModel is the starting model: every class has room for perClass
// prototypes, the budget learn keeps it to, in one backing array shared by
// capacity-limited windows, so learning grows no class.
func emptyModel(perClass int) Model {
	var m Model
	backing := make([]prototype, len(m.Classes)*perClass)
	for k := range m.Classes {
		m.Classes[k] = backing[k*perClass : k*perClass : (k+1)*perClass]
	}
	return m
}

// cloneModel copies m into one backing array, every class with its
// capacity, so the clone has the same room to grow.
func cloneModel(m Model) Model {
	n := 0
	for _, protos := range m.Classes {
		n += cap(protos)
	}
	backing := make([]prototype, n)
	var c Model
	for k, protos := range m.Classes {
		c.Classes[k] = backing[:copy(backing, protos):cap(protos)]
		backing = backing[cap(protos):]
	}
	return c
}

// params resolve the five algorithmic tradeoffs.
type params struct {
	prec          [3]tradeoff.Precision
	maxPrototypes int
	minPrototypes int
}

// Output is the predictions for one batch.
type Output struct {
	Offset int
	Pred   []int
}

// Result is the stream's predicted labels; its Distance is the difference
// in B³ metrics against the gold labels (§4.2). Gold is shared by every
// result over the same stream variant: read-only.
type Result struct {
	Pred []int
	Gold []int
}

// Distance implements workload.Result.
func (r Result) Distance(ref workload.Result) float64 {
	o := ref.(Result)
	return math.Abs(quality.BCubed(r.Pred, r.Gold) - quality.BCubed(o.Pred, o.Gold))
}

// W is the streamclassifier workload.
type W struct{}

// New returns the workload.
func New() *W { return &W{} }

// Desc implements workload.Workload with Table 1's streamclassifier row.
func (*W) Desc() workload.Descriptor {
	return workload.Descriptor{
		Name:        "streamclassifier",
		Declaration: declaration,
		OriginalLOC: 1770,
		NumDeps:     2,
		Tradeoffs: []tradeoff.T{
			tradeoff.New("ScorePrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("UpdatePrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("WeightPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("MaxPrototypes", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 4, Default: 1}),
			tradeoff.New("MinPrototypes", tradeoff.Constant, tradeoff.IntRange{Lo: 1, Hi: 2, Default: 0}),
		},
		TradeoffLOC:       [][2]int{{70, 180}, {10, 20}, {60, 130}, {0, 15}, {0, 15}, {0, 15}, {0, 15}},
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
	p.maxPrototypes = int(o.Value(ts, 3, defaults).(int64))
	p.minPrototypes = int(o.Value(ts, 4, defaults).(int64))
	if p.minPrototypes > p.maxPrototypes {
		p.minPrototypes = p.maxPrototypes
	}
	return p
}

// classify returns the predicted class: the class of the nearest prototype.
// Unseen classes (no prototypes yet) are skipped; with an empty model the
// prediction defaults to class 0.
func classify(m *Model, p params, pt streamdata.Point) int {
	best := math.Inf(1)
	pred := 0
	for k := range m.Classes {
		for i := range m.Classes[k] {
			d := p.prec[0].Quantize(streamdata.SqDist(m.Classes[k][i].pos, pt.X))
			if d < best {
				best = d
				pred = k
			}
		}
	}
	return pred
}

// learn folds a labeled point into its class's prototypes: nearest
// prototype drifts toward the point (with randomized step — the
// nondeterminism), or a new prototype opens while under budget.
func learn(r *rng.Source, m *Model, p params, pt streamdata.Point) {
	protos := m.Classes[pt.Label]
	if len(protos) < p.minPrototypes || len(protos) == 0 ||
		(len(protos) < p.maxPrototypes && r.Float64() < 0.05) {
		m.Classes[pt.Label] = append(protos, prototype{pos: pt.X, weight: 1})
		return
	}
	best := math.Inf(1)
	bi := 0
	for i := range protos {
		if d := streamdata.SqDist(protos[i].pos, pt.X); d < best {
			best, bi = d, i
		}
	}
	pr := &protos[bi]
	w := p.prec[2].Quantize(pr.weight)
	// The learning step is randomized: stochastic approximation with a
	// jittered rate, the source of output variability.
	lr := (1 + 0.5*r.Norm()) / (w + 1)
	if lr < 0.01 {
		lr = 0.01
	}
	for d := 0; d < streamdata.Dim; d++ {
		step := p.prec[1].Quantize(lr * (pt.X[d] - pr.pos[d]))
		pr.pos[d] += step
	}
	pr.weight = w + 1
}

// computeOutput predicts each batch point then learns from it
// (prequential evaluation), returning the predictions. It updates the model
// it is handed in place (core.Compute: the state belongs to the call).
func computeOutput(p params) core.Compute[Batch, Model, Output] {
	return func(r *rng.Source, b Batch, m Model) (Output, Model) {
		out := Output{Offset: b.Offset, Pred: make([]int, len(b.Points))}
		for i, pt := range b.Points {
			out.Pred[i] = classify(&m, p, pt)
			learn(r, &m, p, pt)
		}
		return out, m
	}
}

// auxCode trains a speculative model from the window's labeled points, on the
// private copy of the initial model the engine hands it.
func auxCode(p params) core.Aux[Batch, Model] {
	return func(r *rng.Source, m Model, recent []Batch) Model {
		for _, b := range recent {
			for _, pt := range b.Points {
				learn(r, &m, p, pt)
			}
		}
		return m
	}
}

// stateOps: deep clone, by-construction acceptance (nil MatchAny).
func stateOps() core.StateOps[Model] {
	return core.StateOps[Model]{Clone: cloneModel}
}

// Points returns the stream points a run at size consumes (shared,
// read-only: see streamdata.Stream).
func Points(size int, badTraining bool) []streamdata.Point {
	return streamdata.Stream(size*pointsPerInput, badTraining)
}

// batchMemo cuts each stream variant into inputs once per process.
var batchMemo = streamdata.Memo[Batch]{Build: func(size int, badTraining bool) []Batch {
	pts := Points(size, badTraining)
	bs := make([]Batch, size)
	for i := range bs {
		bs[i] = Batch{Offset: i * pointsPerInput, Points: pts[i*pointsPerInput : (i+1)*pointsPerInput]}
	}
	return bs
}}

// batches splits the stream into inputs: shared by every caller and
// read-only (streamdata.Memo).
func batches(size int, badTraining bool) []Batch {
	return batchMemo.Get(size, badTraining)
}

// numMembers is the slot count of the reservations formulation: batches
// are dealt round-robin over an ensemble of independent models, one state
// slot each, so same-round batches on distinct members have disjoint
// footprints and commit together.
const numMembers = 4

// EnsembleBatch is one cell of the ensemble chain: batch index i routed
// to member i % numMembers.
type EnsembleBatch struct {
	Offset int
	Member int
	Points []streamdata.Point
}

// EnsembleBatches deals the stream's batches round-robin over the
// ensemble members.
func EnsembleBatches(size int, badTraining bool) []EnsembleBatch {
	bs := batches(size, badTraining)
	cells := make([]EnsembleBatch, len(bs))
	for i, b := range bs {
		cells[i] = EnsembleBatch{Offset: b.Offset, Member: i % numMembers, Points: b.Points}
	}
	return cells
}

// modelsEqual compares two member models structurally (the Touched
// oracle hook needs a value diff).
func modelsEqual(a, b Model) bool {
	for k := range a.Classes {
		if len(a.Classes[k]) != len(b.Classes[k]) {
			return false
		}
		for i := range a.Classes[k] {
			if a.Classes[k][i] != b.Classes[k][i] {
				return false
			}
		}
	}
	return true
}

// ensembleSlots is the ensemble chain's reservation contract (one model per
// member, and a cell's footprint is exactly its member's slot); the
// package's tests hold the declaration's slots and reserve entries to it.
func ensembleSlots() (core.StateOps[[]Model], core.ReserveOps[EnsembleBatch, []Model]) {
	return core.SlotOps(func(in EnsembleBatch) []int { return []int{in.Member} }, cloneModel, modelsEqual)
}

// ensembleDependence builds the reservation-ready dependence on
// ensembleSlots.
func ensembleDependence(p params) *core.Dependence[EnsembleBatch, []Model, Output] {
	compute := func(r *rng.Source, in EnsembleBatch, st []Model) (Output, []Model) {
		m := st[in.Member]
		out := Output{Offset: in.Offset, Pred: make([]int, len(in.Points))}
		for i, pt := range in.Points {
			out.Pred[i] = classify(&m, p, pt)
			learn(r, &m, p, pt)
		}
		st[in.Member] = m
		return out, st
	}
	ops, reserve := ensembleSlots()
	return core.New[EnsembleBatch, []Model, Output](compute, nil, ops).WithReserve(reserve)
}

// runEnsemble classifies the stream through one reservations engine run
// over the ensemble chain; outputs carry their stream offsets, so the
// existing assembly works unchanged.
func runEnsemble(seed uint64, size int, p params, o workload.SpecOptions) (workload.Result, core.Stats) {
	dep := ensembleDependence(p)
	init := make([]Model, numMembers)
	for i := range init {
		init[i] = emptyModel(p.maxPrototypes)
	}
	outs, _, st := dep.Run(EnsembleBatches(size, o.BadTraining), init, o.CoreOptions(seed))
	return assemble(size, outs, o.BadTraining), st
}

// assemble lays the batches' predictions out in stream order next to the
// stream's gold labels.
func assemble(size int, outs []Output, badTraining bool) Result {
	gold := streamdata.Labels(size*pointsPerInput, badTraining)
	res := Result{Pred: make([]int, len(gold)), Gold: gold}
	for _, o := range outs {
		copy(res.Pred[o.Offset:], o.Pred)
	}
	return res
}

// RunOriginal implements workload.Workload.
func (w *W) RunOriginal(seed uint64, size int) workload.Result {
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), 0, false)
}

func (w *W) run(seed uint64, size int, p params, warmPasses int, badTraining bool) Result {
	bs := batches(size, badTraining)
	r := rng.New(seed)
	m := emptyModel(p.maxPrototypes)
	// Quality-boost mode: extra passes over the data warm the model
	// before the scored prequential pass.
	for pass := 0; pass < warmPasses; pass++ {
		for _, b := range bs {
			for _, pt := range b.Points {
				learn(r.Split(), &m, p, pt)
			}
		}
	}
	compute := computeOutput(p)
	outs := make([]Output, 0, len(bs))
	for _, b := range bs {
		var o Output
		o, m = compute(r.Split(), b, m)
		outs = append(outs, o)
	}
	return assemble(size, outs, badTraining)
}

// RunOracle implements workload.Workload: generous prototype budget and
// warm passes, fixed seed.
func (w *W) RunOracle(size int) workload.Result {
	p := w.resolve(workload.SpecOptions{}, true)
	p.maxPrototypes = 4
	return w.run(0x0AC1E, size, p, 8, false)
}

// RunBoosted implements workload.Workload (Fig. 16): extra passes.
func (w *W) RunBoosted(seed uint64, size int, factor float64) workload.Result {
	passes := int(factor) - 1
	if passes < 0 {
		passes = 0
	}
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), passes, false)
}

// RunSTATS implements workload.Workload. Under core.ProtocolReservations
// the stream runs the ensemble formulation: numMembers independent
// models, one state slot each (see ensembleDependence).
func (w *W) RunSTATS(seed uint64, size int, o workload.SpecOptions) (workload.Result, core.Stats) {
	def := w.resolve(o, true)
	if o.Protocol == core.ProtocolReservations {
		return runEnsemble(seed, size, def, o)
	}
	aux := w.resolve(o, false)
	bs := batches(size, o.BadTraining)
	dep := core.New(computeOutput(def), auxCode(aux), stateOps())
	// The auxiliary code learns at its own budget, on a clone of this.
	init := emptyModel(max(def.maxPrototypes, aux.maxPrototypes))
	outs, _, st := dep.Run(bs, init, o.CoreOptions(seed))
	return assemble(size, outs, o.BadTraining), st
}

// CostModel implements workload.Workload (same shape as streamcluster).
func (w *W) CostModel(size int, o workload.SpecOptions) workload.Model {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	unit := func(p params) float64 {
		precCost := (p.prec[0].CostFactor() + p.prec[1].CostFactor() + p.prec[2].CostFactor()) / 3
		return precCost * (0.5 + 0.5*float64(p.maxPrototypes)/2.0)
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
		InnerSerialFrac: 0.10,
		SyncWork:        0.04,
		ValidateWork:    0.001,
		MatchProb:       1,
		RedoGain:        0,
	}
}
