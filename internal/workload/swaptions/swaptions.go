// Package swaptions reproduces the PARSEC swaptions benchmark (§4.2): a
// portfolio of swaptions priced by Monte Carlo simulation of an HJM-style
// interest-rate model. The simulation of one swaption is sequential: its
// state — the running price estimate — is updated by every block of
// simulated trials, which is the state dependence. Across swaptions the
// program is embarrassingly parallel (the original TLP); the paper shrinks
// the native input to 34 swaptions so this outer parallelism saturates a
// 28-core machine and the bottleneck becomes visible.
//
// Tradeoffs (§4.2): the data types of two values used during the Monte
// Carlo simulation (path arithmetic and discounting precision).
//
// The speculative state needs no comparison function: a price estimate
// extrapolated from a window of trial blocks is, by construction, a state
// some execution of the nondeterministic original producer could have
// generated (§4.2: "the speculative state could have already been generated
// by an execution of the original program").
package swaptions

import (
	"math"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/tradeoff"
	"repro/internal/workload"
)

// trialsPerBlock is the number of Monte Carlo paths one input block
// contributes to a swaption's estimate.
const trialsPerBlock = 64

// pathSteps is the number of time steps per simulated rate path.
const pathSteps = 16

// numSwaptions matches the paper's reduced native input ("34 swaptions
// rather than 128").
const numSwaptions = 34

// realRunSwaptions bounds how many swaptions the real-execution paths price
// (quality experiments need the distribution, not the full portfolio).
const realRunSwaptions = 6

// Swaption is one instrument's parameters.
type Swaption struct {
	Strike   float64
	Maturity float64
	Tenor    float64
	Vol      float64
	Rate     float64
}

// Block is one input of the state-dependence chain: the Index lets the
// auxiliary code know how many trials precede a group, which is how the
// runtime can know the input count up front (unlike canneal).
type Block struct {
	Index int
}

// PriceState is the running Monte Carlo estimate: the state of Figure 4.
type PriceState struct {
	Sum   float64
	Count float64
}

// Mean returns the current price estimate.
func (s PriceState) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Result is the priced portfolio; its Distance is the average relative
// price difference (§4.2).
type Result struct {
	Prices []float64
}

// Distance implements workload.Result.
func (r Result) Distance(ref workload.Result) float64 {
	return quality.AvgRelativePriceDiff(r.Prices, ref.(Result).Prices)
}

// params resolve the two precision tradeoffs.
type params struct {
	pathPrec tradeoff.Precision
	discPrec tradeoff.Precision
}

// W is the swaptions workload.
type W struct{}

// New returns the workload.
func New() *W { return &W{} }

// Desc implements workload.Workload with Table 1's swaptions row.
func (*W) Desc() workload.Descriptor {
	return workload.Descriptor{
		Name:        "swaptions",
		OriginalLOC: 1120,
		NumDeps:     1,
		Tradeoffs: []tradeoff.T{
			tradeoff.New("PathPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
			tradeoff.New("DiscountPrecision", tradeoff.Type, tradeoff.PrecisionEnum()),
		},
		TradeoffLOC:          [][2]int{{10, 15}, {20, 120}, {3, 9}, {3, 9}},
		ComparisonLOC:        0, // no comparison function needed
		ScalarReductionState: true,
		SafeToBreak:          true,
		SupportsSTATS:        true,
		VariabilitySource:    "prvg",
	}
}

func (w *W) resolve(o workload.SpecOptions, defaults bool) params {
	ts := w.Desc().Tradeoffs
	return params{
		pathPrec: o.Value(ts, 0, defaults).(tradeoff.Precision),
		discPrec: o.Value(ts, 1, defaults).(tradeoff.Precision),
	}
}

// Portfolio materializes the fixed input instruments. badTraining produces
// the §4.6 variant: "unrealistic swaption parameters like market strikes
// and maturity dates".
func Portfolio(n int, badTraining bool) []Swaption {
	return portfolio(n, badTraining)
}

func portfolio(n int, badTraining bool) []Swaption {
	seed := uint64(0x53A9)
	if badTraining {
		seed ^= 0xBAD
	}
	r := rng.New(seed)
	out := make([]Swaption, n)
	for i := range out {
		if badTraining {
			out[i] = Swaption{
				Strike:   0.90 + r.Float64()*0.5, // far out of market
				Maturity: 40 + r.Float64()*20,    // implausibly long-dated
				Tenor:    0.1,
				Vol:      0.95,
				Rate:     0.001,
			}
			continue
		}
		out[i] = Swaption{
			Strike:   0.010 + r.Float64()*0.010,
			Maturity: 1 + r.Float64()*9,
			Tenor:    1 + r.Float64()*4,
			Vol:      0.1 + r.Float64()*0.2,
			Rate:     0.030 + r.Float64()*0.030,
		}
	}
	return out
}

// hjmFactors is the number of stochastic factors driving the forward
// curve (the HJM framework the benchmark's pricer implements).
const hjmFactors = 2

// simulateTrial prices one payoff sample under a two-factor HJM forward
// model: a parallel-shift factor moving the whole curve and a twist factor
// whose effect grows along the tenor. The payoff is the positive part of
// the average forward over the underlying swap's tenor against the strike,
// discounted along the realized short-rate path. The two precision
// tradeoffs quantize the path arithmetic and the discounting.
func simulateTrial(r *rng.Source, s Swaption, p params) float64 {
	dt := s.Maturity / pathSteps
	// Forward curve sampled at four tenor points across the swap.
	const curvePoints = 4
	var fwd [curvePoints]float64
	for k := range fwd {
		fwd[k] = s.Rate
	}
	// Factor volatilities: the shift carries most of the variance, the
	// twist tilts the curve.
	shiftVol := s.Vol * 0.85
	twistVol := s.Vol * 0.55
	discountExp := 0.0
	for i := 0; i < pathSteps; i++ {
		var z [hjmFactors]float64
		for f := range z {
			z[f] = r.Norm()
		}
		// The short end of the curve discounts the payoff.
		discountExp += fwd[0] * dt
		for k := range fwd {
			tilt := (float64(k)/(curvePoints-1) - 0.5) * 2 // -1..1 along the tenor
			drift := -0.5 * (shiftVol*shiftVol + twistVol*twistVol*tilt*tilt) * dt
			diffusion := shiftVol*math.Sqrt(dt)*z[0] + twistVol*tilt*math.Sqrt(dt)*z[1]
			fwd[k] *= math.Exp(p.pathPrec.Quantize(drift + diffusion))
			fwd[k] = p.pathPrec.Quantize(fwd[k])
		}
	}
	// Swap rate at expiry: the average forward across the tenor points.
	swapRate := 0.0
	for _, f := range fwd {
		swapRate += f
	}
	swapRate /= curvePoints
	payoff := swapRate - s.Strike
	if payoff < 0 {
		payoff = 0
	}
	discount := p.discPrec.Quantize(math.Exp(-discountExp))
	return p.discPrec.Quantize(payoff * discount * s.Tenor * 100)
}

// computeOutput is the state-dependence target: consume one block of
// trials, update the running estimate, emit the current price. The state is
// a value: handing it over is the copy, so there is nothing to update in place.
func computeOutput(s Swaption, p params) core.Compute[Block, PriceState, float64] {
	return func(r *rng.Source, _ Block, st PriceState) (float64, PriceState) {
		for t := 0; t < trialsPerBlock; t++ {
			st.Sum += simulateTrial(r, s, p)
		}
		st.Count += trialsPerBlock
		return st.Mean(), st
	}
}

// auxCode extrapolates the running estimate: simulate the window's blocks
// at the auxiliary precisions, then scale the estimated mean to the trial
// count the group expects. The block indices tell it how many trials the
// prefix holds.
func auxCode(s Swaption, p params) core.Aux[Block, PriceState] {
	return func(r *rng.Source, init PriceState, recent []Block) PriceState {
		if len(recent) == 0 {
			return init
		}
		sum := 0.0
		n := 0
		for range recent {
			for t := 0; t < trialsPerBlock; t++ {
				sum += simulateTrial(r, s, p)
				n++
			}
		}
		// The group following `recent` starts after block lastIndex+1,
		// i.e. with (lastIndex+1)*trialsPerBlock trials accumulated.
		count := float64(recent[len(recent)-1].Index+1) * trialsPerBlock
		mean := sum / float64(n)
		return PriceState{Sum: init.Sum + mean*count, Count: init.Count + count}
	}
}

// stateOps: value clone, by-construction acceptance (nil MatchAny).
// Without a MatchAny the engine never consults the fingerprint (states
// are accepted by construction); it documents the state's identity
// features and keeps the hash-first wiring uniform across the suite.
func stateOps() core.StateOps[PriceState] {
	return core.StateOps[PriceState]{
		Clone: func(s PriceState) PriceState { return s },
		Fingerprint: func(s PriceState) uint64 {
			return mathx.NewHash64().Float(s.Sum).Float(s.Count).Sum()
		},
	}
}

func blocks(size int) []Block {
	bs := make([]Block, size)
	for i := range bs {
		bs[i] = Block{Index: i}
	}
	return bs
}

// RunOriginal implements workload.Workload: sequentially price the
// real-run portfolio slice.
func (w *W) RunOriginal(seed uint64, size int) workload.Result {
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), 1, false)
}

func (w *W) run(seed uint64, size int, p params, trialScale float64, badTraining bool) Result {
	instruments := portfolio(numSwaptions, badTraining)[:realRunSwaptions]
	root := rng.New(seed)
	res := Result{Prices: make([]float64, len(instruments))}
	nBlocks := int(float64(size) * trialScale)
	if nBlocks < 1 {
		nBlocks = 1
	}
	for i, s := range instruments {
		compute := computeOutput(s, p)
		st := PriceState{}
		r := root.Split()
		var price float64
		for _, b := range blocks(nBlocks) {
			price, st = compute(r.Split(), b, st)
		}
		res.Prices[i] = price
	}
	return res
}

// RunOracle implements workload.Workload: full double precision with 16×
// the trials, fixed seed.
func (w *W) RunOracle(size int) workload.Result {
	return w.run(0x0AC1E, size, params{pathPrec: tradeoff.Double, discPrec: tradeoff.Double}, 16, false)
}

// RunBoosted implements workload.Workload: factor× more trials (Fig. 16).
func (w *W) RunBoosted(seed uint64, size int, factor float64) workload.Result {
	if factor < 1 {
		factor = 1
	}
	return w.run(seed, size, w.resolve(workload.SpecOptions{}, true), factor, false)
}

// RunSTATS implements workload.Workload: each swaption's block chain runs
// through the core engine; statistics aggregate across instruments. Under
// core.ProtocolReservations the six chains are interleaved into one
// block-major flat chain with one state slot per instrument (see
// flatDependence), so the protocol's slot footprints expose the
// portfolio's outer parallelism inside a single engine run.
func (w *W) RunSTATS(seed uint64, size int, o workload.SpecOptions) (workload.Result, core.Stats) {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	instruments := portfolio(numSwaptions, o.BadTraining)[:realRunSwaptions]
	if o.Protocol == core.ProtocolReservations {
		return runFlat(seed, size, instruments, def, o)
	}
	res := Result{Prices: make([]float64, len(instruments))}
	var agg core.Stats
	for i, s := range instruments {
		dep := core.New(computeOutput(s, def), auxCode(s, aux), stateOps())
		outs, _, st := dep.Run(blocks(size), PriceState{}, o.CoreOptions(seed+uint64(i)*0x9E37))
		res.Prices[i] = outs[len(outs)-1]
		agg.Add(st)
	}
	return res, agg
}

// FlatBlock is one (block, instrument) cell of the block-major chain the
// reservations protocol prices: sequential order walks instruments within
// a block, then advances to the next block, so cells of the same block
// touch disjoint slots and commit in the same round.
type FlatBlock struct {
	Block int
	Inst  int
}

// flatDependence builds the reservation-ready dependence over the
// portfolio: state is one PriceState per instrument and a cell's footprint
// is exactly its instrument's slot.
func flatDependence(instruments []Swaption, p params) *core.Dependence[FlatBlock, []PriceState, float64] {
	compute := func(r *rng.Source, in FlatBlock, st []PriceState) (float64, []PriceState) {
		s := instruments[in.Inst]
		cell := st[in.Inst]
		for t := 0; t < trialsPerBlock; t++ {
			cell.Sum += simulateTrial(r, s, p)
		}
		cell.Count += trialsPerBlock
		st[in.Inst] = cell
		return cell.Mean(), st
	}
	ops, reserve := core.SlotOps(func(in FlatBlock) []int { return []int{in.Inst} },
		nil, func(a, b PriceState) bool { return a == b })
	return core.New[FlatBlock, []PriceState, float64](compute, nil, ops).WithReserve(reserve)
}

// FlatBlocks materializes the block-major chain for nBlocks blocks over k
// instruments.
func FlatBlocks(nBlocks, k int) []FlatBlock {
	cells := make([]FlatBlock, 0, nBlocks*k)
	for b := 0; b < nBlocks; b++ {
		for i := 0; i < k; i++ {
			cells = append(cells, FlatBlock{Block: b, Inst: i})
		}
	}
	return cells
}

// runFlat prices the portfolio through one reservations engine run over
// the block-major chain. The last block's row of outputs holds the final
// per-instrument prices.
func runFlat(seed uint64, size int, instruments []Swaption, p params, o workload.SpecOptions) (workload.Result, core.Stats) {
	k := len(instruments)
	dep := flatDependence(instruments, p)
	outs, _, st := dep.Run(FlatBlocks(size, k), make([]PriceState, k), o.CoreOptions(seed))
	res := Result{Prices: make([]float64, k)}
	copy(res.Prices, outs[(size-1)*k:])
	return res, st
}

// CostModel implements workload.Workload. One default-precision block is
// one work unit; the original TLP is the outer loop over 34 swaptions with
// no inner parallelism — exactly the structure that caps the original at
// ceil(34/threads) waves.
func (w *W) CostModel(size int, o workload.SpecOptions) workload.Model {
	def := w.resolve(o, true)
	aux := w.resolve(o, false)
	unit := func(p params) float64 {
		return 0.5*p.pathPrec.CostFactor() + 0.5*p.discPrec.CostFactor()
	}
	win := o.Window
	if win < 1 {
		win = 1
	}
	return workload.Model{
		NumInputs:       size,
		InvocationWork:  unit(def),
		AuxWork:         float64(win) * unit(aux),
		InnerWidth:      1,
		InnerSerialFrac: 1,
		SyncWork:        0,
		ValidateWork:    0.001,
		OuterParallel:   true,
		OuterTasks:      numSwaptions,
		// By-construction acceptance: speculation always commits.
		MatchProb: 1,
		RedoGain:  0,
	}
}
