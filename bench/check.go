package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/workload/streamclassifier"
)

// bandFactor is how far outside the program's own variability band an
// auxiliary-protocol output may fall before the run counts as failed: the
// rule of conformance.TestSTATSPreservesQualityBand.
const bandFactor = 4

// call is what one invocation of a program returned, as the checker sees
// it: the output, its length in the program's own output units, the engine
// statistics, and the panic that ended the call, if one did.
type call struct {
	res    workload.Result
	outLen int
	st     core.Stats
	err    error
}

// expectation is what a correct call of one benchmark case looks like.
type expectation struct {
	outLen  int // output length of the sequential baseline
	inputs  int // engine inputs of the sequential baseline
	engines int // engine runs behind one call; each may abort at most once
	// band is the largest distance of five original runs from the oracle;
	// an auxiliary-protocol output must stay within bandFactor × band of
	// oracle. A nil oracle skips the check (reservations, synthetic).
	oracle workload.Result
	band   float64
	// exact makes the output of a speculative call equal the sequential
	// call of the same seed: distance exactly zero. Reservations preserve
	// sequential semantics by construction; the synthetic dependence is
	// deterministic.
	exact bool
}

// check returns why the call is a failed run, or "" when it is correct,
// and for an oracle-checked call its quality ratio: the distance to the
// oracle in units of the band (bandFactor is the limit; 0 with a zero
// band). seq is the sequential call of the same case and seed, nil when c
// is that call.
func (e expectation) check(c call, seq *call) (why string, quality float64) {
	switch {
	case c.err != nil:
		return fmt.Sprintf("panicked: %v", c.err), 0
	case len(c.st.Panics) > 0:
		return fmt.Sprintf("contained panic: %v", c.st.Panics[0]), 0
	case c.outLen != e.outLen:
		return fmt.Sprintf("output length %d, want %d", c.outLen, e.outLen), 0
	case c.st.Inputs != e.inputs:
		return fmt.Sprintf("Stats.Inputs %d, want %d", c.st.Inputs, e.inputs), 0
	case c.st.UsefulInvocations > c.st.Invocations:
		return fmt.Sprintf("useful invocations %d exceed invocations %d", c.st.UsefulInvocations, c.st.Invocations), 0
	case c.st.Aborts > e.engines:
		return fmt.Sprintf("%d aborts in %d engine runs", c.st.Aborts, e.engines), 0
	}
	if e.oracle != nil {
		d := distance(c.res, e.oracle)
		quality = ratio(d, e.band)
		if !(d <= bandFactor*e.band+1e-9) {
			return fmt.Sprintf("distance to oracle %g outside %d x band %g", d, bandFactor, e.band), quality
		}
	}
	if e.exact && seq != nil {
		if d := distance(c.res, seq.res); d != 0 {
			return fmt.Sprintf("distance to the sequential run of the same seed %g, want 0", d), quality
		}
	}
	return "", quality
}

// distance is a.Distance(b), except for streamclassifier: its Distance
// computes B³ with a pairwise loop over every point, 2 s per call at the
// size benchmarked here, so checking each run needs the contingency-table
// form of the same metric. A test pins bcubed to quality.BCubed.
func distance(a, b workload.Result) float64 {
	if x, ok := a.(streamclassifier.Result); ok {
		y := b.(streamclassifier.Result)
		return math.Abs(bcubed(x.Pred, x.Gold) - bcubed(y.Pred, y.Gold))
	}
	return a.Distance(b)
}

// bcubed is the B³ F-measure of a labelling against gold labels: the
// harmonic mean of the per-item precision and recall averages. Items in
// the same (predicted, gold) cell share both, so it sums over cells.
func bcubed(pred, gold []int) float64 {
	n := min(len(pred), len(gold))
	if n == 0 {
		return 1
	}
	type cell struct{ p, g int }
	predSize, goldSize, both := map[int]float64{}, map[int]float64{}, map[cell]float64{}
	for i := 0; i < n; i++ {
		predSize[pred[i]]++
		goldSize[gold[i]]++
		both[cell{pred[i], gold[i]}]++
	}
	// Sum in a fixed order: equal labellings must give bit-equal values,
	// because the reservations check demands a distance of exactly zero.
	cells := make([]cell, 0, len(both))
	for c := range both {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].p != cells[j].p {
			return cells[i].p < cells[j].p
		}
		return cells[i].g < cells[j].g
	})
	var precSum, recSum float64
	for _, c := range cells {
		k := both[c]
		precSum += k * k / predSize[c.p]
		recSum += k * k / goldSize[c.g]
	}
	prec, rec := precSum/float64(n), recSum/float64(n)
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}
